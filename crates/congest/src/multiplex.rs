//! Lane-multiplexed messages: several logical sub-protocol instances in
//! **one** engine run.
//!
//! Sequential composition through [`crate::Runner`] sums the rounds of
//! its parts — correct, but wasteful when the parts are *independent*:
//! `k` instances of the same `O(D)`-round tree protocol run back to back
//! cost `k * O(D)` rounds even though most edges idle in every round.
//! The CONGEST fix is classic multiplexing: tag every message with the
//! *lane* (instance id) it belongs to and run all instances in a single
//! execution. Lanes share rounds; contention for an edge surfaces as
//! queueing, so the cost becomes `O(D + k)`-shaped instead of
//! `k * O(D)` — exactly the interleaving that MANY-RANDOM-WALKS needs
//! (Theorem 2.8) and that the batched Phase-2 scheduler in `drw-core`
//! builds on.
//!
//! [`Mux2`] is the tagged envelope payload. Its tag is accounted as one
//! extra `O(log n)`-bit word on every message, so the CONGEST bandwidth
//! price of multiplexing is explicit rather than hidden.

use crate::message::{Message, WireReader, WireSink};

/// A message of one lane of one *request* within a multiplexed run of
/// heterogeneous requests.
///
/// The request id lets one engine run host the work items of *several
/// independent requests* (walk requests, spanning-tree phases, mixing
/// probes) side by side; the lane names the instance within a request
/// (e.g. one walk of a `MANY-RANDOM-WALKS` call). Handlers dispatch on
/// `(req, lane)` to the per-lane state they keep, and per-request
/// bookkeeping (round attribution, result grouping) stays explicit on
/// the wire instead of being reverse-engineered from lane ranges.
///
/// Both ids are `u16`, bounding a single multiplexed run to 65536
/// concurrent requests × 65536 lanes — far beyond any simulable batch —
/// so the pair packs into **one** `O(log n)`-bit word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mux2<M> {
    /// Which request this message belongs to.
    pub req: u16,
    /// Which lane (instance) of the request's protocol.
    pub lane: u16,
    /// The instance's own payload.
    pub msg: M,
}

impl<M> Mux2<M> {
    /// Tags `msg` with `(req, lane)`.
    pub fn new(req: u16, lane: u16, msg: M) -> Self {
        Mux2 { req, lane, msg }
    }
}

impl<M: Message> Message for Mux2<M> {
    /// The `(req, lane)` pair is one word, ahead of the inner payload.
    fn encode(&self, w: &mut impl WireSink) {
        w.packed(&[("req", self.req.into()), ("lane", self.lane.into())]);
        w.inner(&self.msg);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(Mux2::new(r.read()?, r.read()?, M::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{round_trips, WireCensus};

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Pair(u32, u32);
    impl Message for Pair {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("a", self.0.into());
            w.word("b", self.1.into());
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            Some(Pair(r.read()?, r.read()?))
        }
    }

    #[test]
    fn request_and_lane_pack_into_one_word() {
        let m = Mux2::new(3, 7, Pair(1, 2));
        assert_eq!(m.size_words(), 3, "the (req, lane) pair is one word");
        assert!(round_trips(&m));
    }

    #[test]
    fn census_records_the_header_and_the_payload_apart() {
        let mut c = WireCensus::default();
        Mux2::new(3, 7, Pair(1, 2)).census(&mut c);
        let mux = c.get("Mux2").expect("header recorded");
        assert_eq!((mux.max_words, mux.fields.len(), mux.lossy), (3, 2, 0));
        assert_eq!(c.get("Pair").expect("payload recorded").max_words, 2);
    }
}
