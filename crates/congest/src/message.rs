//! Message trait, its wire listing, and the runtime wire-value census.

use drw_graph::NodeId;

/// A CONGEST message.
///
/// A message lists its wire words once, in [`Message::encode`]: its size
/// and its census both come from that listing. A word holds one node
/// id, one counter bounded by `poly(n)`, or one walk length — anything
/// with `O(log n)` bits. Constant-size tags (an enum variant, an
/// `Option`'s presence, a `bool`) are free under the model.
///
/// [`Message::decode`] reads the listing back. When the engine runs with
/// [`crate::EngineConfig::record_wire`] it calls [`Message::census`] on
/// every delivered message, which records each listed field's magnitude
/// and checks `decode(encode(m)) == m`: a listing that leaves a field
/// out is counted as lossy, and `drw-analyze`'s wire audit reports both
/// that count and any field magnitude that outgrew the `O(log n)`-bit
/// budget.
///
/// Messages are plain owned data (`Send + 'static`): the engine keeps
/// their queue and inbox buffers in a [`crate::Runner`] between runs.
pub trait Message: Clone + PartialEq + std::fmt::Debug + Send + 'static {
    /// Lists this message's wire words and tags, in order.
    fn encode(&self, w: &mut impl WireSink);

    /// Rebuilds a message from the values its listing emitted, in the
    /// same order; `None` when they do not form one.
    fn decode(r: &mut WireReader<'_>) -> Option<Self>;

    /// Size of this message in `O(log n)`-bit words: the words its
    /// listing emits.
    #[inline]
    fn size_words(&self) -> usize {
        let mut count = WordCount(0);
        self.encode(&mut count);
        count.0
    }

    /// Records one delivery of this message into the per-run wire
    /// census: its size, every listed field's magnitude, and whether
    /// the listing round-trips. Kept out of line: inlined, it would
    /// bloat the delivery loop it is called from when the census is on.
    #[inline(never)]
    fn census(&self, census: &mut WireCensus) {
        let ty = wire_type_name::<Self>();
        let entry = census.record(ty, self.size_words());
        entry.lossy += u64::from(!round_trips(self));
        self.encode(&mut CensusSink { census, ty });
    }
}

/// Receives a message's wire listing ([`Message::encode`]).
pub trait WireSink {
    /// One word packing the named sub-fields: `Mux2`'s `(req, lane)`,
    /// or a walk id's `source:32 | seq:32`.
    fn packed(&mut self, fields: &[(&'static str, u64)]);

    /// One fixed-point word whose low `frac.0` bits are precision, not
    /// magnitude. The [`FracBits`] annotation itself is free.
    fn fixed(&mut self, name: &'static str, value: u64, frac: FracBits);

    /// Constant-size tag bits, free under the model and not priced: an
    /// enum variant, an `Option`'s presence, a `bool`, a length bounded
    /// by the word cap.
    fn tag(&mut self, value: u64);

    /// `words` words that carry no field (a variant padded to its
    /// type's declared width).
    fn pad(&mut self, words: usize);

    /// A nested message, listed after the wrapper's own words and
    /// recorded as its own census type.
    fn inner<M: Message>(&mut self, msg: &M);

    /// One word carrying one field.
    #[inline]
    fn word(&mut self, name: &'static str, value: u64) {
        self.packed(&[(name, value)]);
    }
}

/// Reads back the values a listing emitted, in listing order: every
/// packed sub-field, every fixed-point value followed by its fraction
/// bits, and every tag.
#[derive(Debug)]
pub struct WireReader<'a>(std::slice::Iter<'a, u64>);

impl WireReader<'_> {
    /// The next value as a `T`; `None` when the listing ran out or the
    /// value does not fit.
    pub fn read<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(*self.0.next()?).ok()
    }

    /// The next value as a `bool` tag.
    pub fn flag(&mut self) -> Option<bool> {
        match self.read::<u8>()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// True iff `decode(encode(msg)) == msg`, with no value left over.
pub fn round_trips<M: Message>(msg: &M) -> bool {
    let mut values = Vec::new();
    msg.encode(&mut values);
    let mut r = WireReader(values.iter());
    M::decode(&mut r).as_ref() == Some(msg) && r.0.len() == 0
}

/// Counts a listing's words.
struct WordCount(usize);

impl WireSink for WordCount {
    #[inline]
    fn packed(&mut self, _: &[(&'static str, u64)]) {
        self.0 += 1;
    }
    #[inline]
    fn fixed(&mut self, _: &'static str, _: u64, _: FracBits) {
        self.0 += 1;
    }
    #[inline]
    fn tag(&mut self, _: u64) {}
    #[inline]
    fn pad(&mut self, words: usize) {
        self.0 += words;
    }
    #[inline]
    fn inner<M: Message>(&mut self, msg: &M) {
        msg.encode(self);
    }
}

/// Keeps a listing's values, for [`Message::decode`].
impl WireSink for Vec<u64> {
    fn packed(&mut self, fields: &[(&'static str, u64)]) {
        self.extend(fields.iter().map(|&(_, v)| v));
    }
    fn fixed(&mut self, _: &'static str, value: u64, frac: FracBits) {
        self.extend([value, u64::from(frac.0)]);
    }
    fn tag(&mut self, value: u64) {
        self.push(value);
    }
    fn pad(&mut self, _: usize) {}
    fn inner<M: Message>(&mut self, msg: &M) {
        msg.encode(self);
    }
}

/// Records a listing's field magnitudes under its type.
struct CensusSink<'c> {
    census: &'c mut WireCensus,
    ty: &'static str,
}

impl WireSink for CensusSink<'_> {
    fn packed(&mut self, fields: &[(&'static str, u64)]) {
        let entry = self.census.entry(self.ty);
        for &(name, value) in fields {
            entry.field(name, value);
        }
    }
    fn fixed(&mut self, name: &'static str, value: u64, frac: FracBits) {
        self.census.entry(self.ty).field_fixed(name, value, frac.0);
    }
    fn tag(&mut self, _: u64) {}
    fn pad(&mut self, _: usize) {}
    fn inner<M: Message>(&mut self, msg: &M) {
        msg.census(self.census);
    }
}

/// The short, path- and generics-stripped type name used as the census
/// key for a message type — `Mux2` for `drw_congest::multiplex::Mux2<M>`.
/// This matches the impl-target name `drw-analyze` finds in the source,
/// so the census joins against the production impls.
#[must_use]
pub fn wire_type_name<T: ?Sized>() -> &'static str {
    let full = std::any::type_name::<T>();
    let head = full.split('<').next().unwrap_or(full);
    head.rsplit("::").next().unwrap_or(head)
}

/// Maximum observed magnitude of one priced message field over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FieldCensus {
    /// Field name as listed by the message's `encode` (variant-qualified
    /// for enums, e.g. `Wave.epoch`).
    pub field: String,
    /// Largest value observed for this field across all deliveries.
    pub max_value: u64,
    /// Declared fixed-point fraction bits: the low `frac_bits` bits of
    /// the value encode precision, not magnitude, and are exempt from
    /// the `O(log n)` budget (0 for plain counters and ids).
    pub frac_bits: u32,
}

/// Per-message-type slice of the wire census.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TypeCensus {
    /// Short type name (see [`wire_type_name`]).
    pub type_name: String,
    /// Number of deliveries of this type observed.
    pub messages: u64,
    /// Largest `size_words()` observed for this type.
    pub max_words: usize,
    /// Deliveries whose listing did not round-trip: `decode(encode(m))`
    /// was not `m` (see [`round_trips`]).
    pub lossy: u64,
    /// Per-field maximum magnitudes, in first-recorded order.
    pub fields: Vec<FieldCensus>,
}

impl TypeCensus {
    /// Records a plain (integer-magnitude) field observation.
    pub fn field(&mut self, name: &str, value: u64) -> &mut Self {
        self.field_fixed(name, value, 0)
    }

    /// Records a fixed-point field observation whose low `frac_bits`
    /// bits are declared precision rather than magnitude.
    pub fn field_fixed(&mut self, name: &str, value: u64, frac_bits: u32) -> &mut Self {
        if let Some(f) = self.fields.iter_mut().find(|f| f.field == name) {
            f.max_value = f.max_value.max(value);
            f.frac_bits = f.frac_bits.max(frac_bits);
        } else {
            self.fields.push(FieldCensus {
                field: name.to_string(),
                max_value: value,
                frac_bits,
            });
        }
        self
    }
}

/// Compact per-run census of actual wire values: for every delivered
/// [`Message`] type, the maximum observed magnitude of each listed
/// field. Recorded by the delivery queue when
/// [`crate::EngineConfig::record_wire`] is set, carried in
/// [`crate::RunReport::wire`], and priced by `drw-analyze`'s
/// wire audit.
///
/// Types are kept sorted by name so equal runs produce byte-identical
/// censuses regardless of delivery interleaving of *types* (field order
/// within a type is fixed by its `encode` listing).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WireCensus {
    /// Per-type records, sorted by `type_name`.
    pub types: Vec<TypeCensus>,
}

impl WireCensus {
    /// True when no message has been recorded (the census is off or the
    /// run delivered nothing).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Looks up the record for one message type.
    #[must_use]
    pub fn get(&self, type_name: &str) -> Option<&TypeCensus> {
        self.types
            .binary_search_by(|t| t.type_name.as_str().cmp(type_name))
            .ok()
            .map(|i| &self.types[i])
    }

    /// Records one delivery of `type_name` at `words` words and returns
    /// its record, for the field magnitudes:
    ///
    /// ```
    /// # use drw_congest::WireCensus;
    /// let mut c = WireCensus::default();
    /// c.record("ShortWalkMsg", 4).field("source", 12).field("step", 3);
    /// assert_eq!(c.get("ShortWalkMsg").unwrap().messages, 1);
    /// ```
    pub fn record(&mut self, type_name: &str, words: usize) -> &mut TypeCensus {
        let ty = self.entry(type_name);
        ty.messages += 1;
        ty.max_words = ty.max_words.max(words);
        ty
    }

    /// The record of `type_name`, inserted empty if absent.
    fn entry(&mut self, type_name: &str) -> &mut TypeCensus {
        let i = self
            .types
            .binary_search_by(|t| t.type_name.as_str().cmp(type_name))
            .unwrap_or_else(|i| {
                let empty = TypeCensus {
                    type_name: type_name.to_string(),
                    messages: 0,
                    max_words: 0,
                    lossy: 0,
                    fields: Vec::new(),
                };
                self.types.insert(i, empty);
                i
            });
        &mut self.types[i]
    }

    /// Folds another census into this one: message and lossy counts
    /// add, word and field maxima compose by `max`. Used when a
    /// scheduler stitches multiple engine passes into one logical run.
    pub fn merge(&mut self, other: &WireCensus) {
        for ty in &other.types {
            let mine = self.entry(&ty.type_name);
            mine.messages += ty.messages;
            mine.max_words = mine.max_words.max(ty.max_words);
            mine.lossy += ty.lossy;
            for f in &ty.fields {
                mine.field_fixed(&f.field, f.max_value, f.frac_bits);
            }
        }
    }
}

/// A static fixed-point precision declaration embedded in a message
/// struct — a **model annotation**, not wire data.
///
/// A generic carrier like `ConvergecastMsg` sometimes transports
/// fixed-point payloads (e.g. the mixing baseline's `2^40`-scaled `L1`
/// distances). The scale is a protocol constant both endpoints already
/// know, so under the standard CONGEST convention it costs nothing on
/// the wire — but the value-level census still needs it to price the
/// payload's magnitude correctly (`frac_bits` of precision are exempt
/// from the `O(log n)` budget). A listing passes it to
/// [`WireSink::fixed`], which prices the word and keeps the
/// annotation free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FracBits(pub u32);

/// A delivered message with its sender and receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload.
    pub msg: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A correct one-word listing: the control for the lies below.
    #[derive(Clone, Debug, PartialEq)]
    struct Fine(u32);
    impl Message for Fine {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("a", self.0.into());
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            r.read().map(Fine)
        }
    }

    /// Lie 1: a compound payload that lists one word.
    #[derive(Clone, Debug, PartialEq)]
    struct Compound(u64, u64);
    impl Message for Compound {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("a", self.0);
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            Some(Compound(r.read()?, r.read()?))
        }
    }

    /// Lie 2: an under-listed struct whose decode makes up the rest.
    #[derive(Clone, Debug, PartialEq)]
    struct Under(u64, u64, u32);
    impl Message for Under {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("a", self.0);
            w.word("b", self.1);
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            Some(Under(r.read()?, r.read()?, 0))
        }
    }

    /// Lie 3: a `Vec` payload, listed honestly and so as wide as it is
    /// long.
    #[derive(Clone, Debug, PartialEq)]
    struct Dynamic(Vec<u64>);
    impl Message for Dynamic {
        fn encode(&self, w: &mut impl WireSink) {
            w.tag(self.0.len() as u64);
            self.0.iter().for_each(|&x| w.word("item", x));
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            let len: usize = r.read()?;
            (0..len)
                .map(|_| r.read())
                .collect::<Option<_>>()
                .map(Dynamic)
        }
    }

    /// Lie 4: a generic wrapper that does not delegate to its payload.
    #[derive(Clone, Debug, PartialEq)]
    struct Wrap<M>(u32, M);
    impl<M: Message> Message for Wrap<M> {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("lane", self.0.into());
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            Some(Wrap(r.read()?, M::decode(r)?))
        }
    }

    /// Lie 5: an enum arm that drops a field.
    #[derive(Clone, Debug, PartialEq)]
    enum Two {
        Big(u64, u64),
        Small,
    }
    impl Message for Two {
        fn encode(&self, w: &mut impl WireSink) {
            match self {
                Two::Big(x, _) => {
                    w.tag(0);
                    w.word("Big.x", *x);
                }
                Two::Small => w.tag(1),
            }
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            match r.read::<u8>()? {
                0 => Some(Two::Big(r.read()?, r.read()?)),
                1 => Some(Two::Small),
                _ => None,
            }
        }
    }

    /// The lossy count one census delivery of `m` records.
    fn lossy<M: Message>(m: &M) -> u64 {
        let mut c = WireCensus::default();
        m.census(&mut c);
        c.get(wire_type_name::<M>()).expect("recorded").lossy
    }

    #[test]
    fn every_lie_fails_the_round_trip_or_the_word_cap() {
        let cap = crate::EngineConfig::default().max_message_words;
        assert_eq!((lossy(&Fine(7)), Fine(7).size_words()), (0, 1));
        assert_eq!(lossy(&Compound(1, 2)), 1);
        assert_eq!(lossy(&Under(1, 2, 3)), 1);
        let long = Dynamic(vec![1; cap + 1]);
        assert_eq!(lossy(&long), 0, "honestly listed");
        assert!(long.size_words() > cap, "but over the cap");
        assert_eq!(lossy(&Wrap(1, Fine(2))), 1);
        assert_eq!(lossy(&Two::Big(1, 2)), 1);
        assert_eq!((lossy(&Two::Small), Two::Small.size_words()), (0, 0));
    }

    #[test]
    fn envelope_fields() {
        let e = Envelope {
            from: 1,
            to: 2,
            msg: Fine(0),
        };
        assert_eq!((e.from, e.to), (1, 2));
    }

    #[test]
    fn wire_type_name_strips_path_and_generics() {
        assert_eq!(wire_type_name::<Fine>(), "Fine");
        assert_eq!(wire_type_name::<Vec<Fine>>(), "Vec");
        assert_eq!(wire_type_name::<Option<Vec<Fine>>>(), "Option");
    }

    #[test]
    fn census_keeps_per_field_maxima() {
        let mut c = WireCensus::default();
        c.record("M", 2).field("a", 7).field_fixed("b", 100, 40);
        c.record("M", 1).field("a", 3).field_fixed("b", 900, 40);
        let ty = c.get("M").unwrap();
        assert_eq!((ty.messages, ty.max_words), (2, 2));
        assert_eq!(ty.fields[0].max_value, 7);
        assert_eq!((ty.fields[1].max_value, ty.fields[1].frac_bits), (900, 40));
    }

    #[test]
    fn census_types_stay_sorted() {
        let mut c = WireCensus::default();
        for name in ["Zeta", "Alpha", "Mid"] {
            c.record(name, 1);
        }
        let names: Vec<&str> = c.types.iter().map(|t| t.type_name.as_str()).collect();
        assert_eq!(names, ["Alpha", "Mid", "Zeta"]);
    }

    #[test]
    fn census_merge_adds_counts_and_maxes_magnitudes() {
        let mut a = WireCensus::default();
        a.record("M", 2).field("v", 10);
        a.record("Only", 1);
        let mut b = WireCensus::default();
        b.record("M", 3).field("v", 4).lossy = 1;
        b.record("M", 1).field("v", 90);
        a.merge(&b);
        let m = a.get("M").unwrap();
        assert_eq!((m.messages, m.max_words, m.lossy), (3, 3, 1));
        assert_eq!(m.fields[0].max_value, 90);
        assert_eq!(a.get("Only").unwrap().messages, 1);
    }
}
