//! Fixture: a Message impl with one sub-word field, whose recorded wire
//! census (in `fixtures/bad_wire.json`) shows the field carrying
//! `poly(n)`-busting magnitudes. Only the runtime wire audit can catch
//! this class of defect; the self-tests assert it does.

/// A probe counter: one word, dynamically out of law.
pub struct ProbeMsg {
    pub level: u32,
}
impl Message for ProbeMsg {}
