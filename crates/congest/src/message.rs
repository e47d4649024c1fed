//! Message trait, envelope types, and the runtime wire-value census.

use drw_graph::NodeId;

/// A CONGEST message.
///
/// Implementors report their size in `O(log n)`-bit *words* so the engine
/// can enforce the bandwidth constraint. A word holds one node id, one
/// counter bounded by `poly(n)`, or one walk-length — anything with
/// `O(log n)` bits. The default of one word suits single-field messages;
/// override for compound payloads.
///
/// The word price is a *type-level* claim; [`Message::census`] is the
/// matching *value-level* measurement. When the engine runs with
/// [`crate::EngineConfig::record_wire`] it calls `census` on every
/// delivered message, and `drw-analyze --wire-report` later checks that
/// no recorded field magnitude outgrew the `O(log n)`-bit budget the
/// word price promised.
///
/// Messages are plain owned data (`Send + 'static`): the engine keeps
/// their queue and inbox buffers in a [`crate::Runner`] between runs.
pub trait Message: Clone + std::fmt::Debug + Send + 'static {
    /// Size of this message in `O(log n)`-bit words.
    fn size_words(&self) -> usize {
        1
    }

    /// Records this message's field magnitudes into the per-run wire
    /// census. The default records only the type and its word size;
    /// production payloads override it to report every priced field so
    /// the run carries a measured (not argued) magnitude bound.
    fn census(&self, census: &mut WireCensus) {
        census.record(wire_type_name::<Self>(), self.size_words());
    }
}

/// The short, path- and generics-stripped type name used as the census
/// key for a message type — `Mux` for `drw_congest::multiplex::Mux<M>`.
/// This matches the impl-target base name the static word audit keys
/// on, so the dynamic census joins against the static pricing table.
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
    /// Field name as reported by the message's `census` override
    /// (variant-qualified for enums, e.g. `Wave.epoch`).
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
    /// Per-field maximum magnitudes, in first-recorded order.
    pub fields: Vec<FieldCensus>,
}

/// Compact per-run census of actual wire values: for every delivered
/// [`Message`] type, the maximum observed magnitude of each priced
/// field. Recorded by the delivery queue when
/// [`crate::EngineConfig::record_wire`] is set, carried in
/// [`crate::RunReport::wire`], and joined against the static pricing
/// table by `drw-analyze --wire-report`.
///
/// Types are kept sorted by name so equal runs produce byte-identical
/// censuses regardless of delivery interleaving of *types* (field order
/// within a type is fixed by its `census` override).
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
    /// a recorder for its field magnitudes:
    ///
    /// ```
    /// # use drw_congest::WireCensus;
    /// let mut c = WireCensus::default();
    /// let _ = c.record("ShortWalkMsg", 4)
    ///     .field("source", 12)
    ///     .field("step", 3);
    /// assert_eq!(c.get("ShortWalkMsg").unwrap().messages, 1);
    /// ```
    pub fn record(&mut self, type_name: &str, words: usize) -> TypeRecorder<'_> {
        let idx = match self
            .types
            .binary_search_by(|t| t.type_name.as_str().cmp(type_name))
        {
            Ok(i) => i,
            Err(i) => {
                self.types.insert(
                    i,
                    TypeCensus {
                        type_name: type_name.to_string(),
                        messages: 0,
                        max_words: 0,
                        fields: Vec::new(),
                    },
                );
                i
            }
        };
        let ty = &mut self.types[idx];
        ty.messages += 1;
        ty.max_words = ty.max_words.max(words);
        TypeRecorder { ty }
    }

    /// Folds another census into this one: message counts add, word and
    /// field maxima compose by `max`. Used when a scheduler stitches
    /// multiple engine passes into one logical run.
    pub fn merge(&mut self, other: &WireCensus) {
        for ty in &other.types {
            let mut rec = self.record(&ty.type_name, ty.max_words);
            // `record` counted one delivery; add the rest.
            rec.ty.messages += ty.messages.saturating_sub(1);
            for f in &ty.fields {
                rec = rec.field_fixed(&f.field, f.max_value, f.frac_bits);
            }
        }
    }
}

/// Borrowed handle for recording one message's field magnitudes; see
/// [`WireCensus::record`].
#[derive(Debug)]
pub struct TypeRecorder<'a> {
    ty: &'a mut TypeCensus,
}

impl TypeRecorder<'_> {
    /// Records a plain (integer-magnitude) field observation.
    #[must_use]
    pub fn field(self, name: &str, value: u64) -> Self {
        self.field_fixed(name, value, 0)
    }

    /// Records a fixed-point field observation whose low `frac_bits`
    /// bits are declared precision rather than magnitude.
    #[must_use]
    pub fn field_fixed(self, name: &str, value: u64, frac_bits: u32) -> Self {
        let fields = &mut self.ty.fields;
        if let Some(f) = fields.iter_mut().find(|f| f.field == name) {
            f.max_value = f.max_value.max(value);
            f.frac_bits = f.frac_bits.max(frac_bits);
        } else {
            fields.push(FieldCensus {
                field: name.to_string(),
                max_value: value,
                frac_bits,
            });
        }
        self
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
/// from the `O(log n)` budget). Embedding the declaration as a
/// `FracBits` field gives it exactly that status in both analyses: the
/// static word auditor prices `FracBits` at **0 bits**, and the census
/// override feeds it to
/// [`TypeRecorder::field_fixed`].
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

    #[derive(Clone, Debug)]
    struct Unit;
    impl Message for Unit {}

    #[derive(Clone, Debug)]
    struct Wide(#[allow(dead_code)] [u64; 3]);
    impl Message for Wide {
        fn size_words(&self) -> usize {
            3
        }
    }

    #[test]
    fn default_size_is_one_word() {
        assert_eq!(Unit.size_words(), 1);
        assert_eq!(Wide([0; 3]).size_words(), 3);
    }

    #[test]
    fn envelope_fields() {
        let e = Envelope {
            from: 1,
            to: 2,
            msg: Unit,
        };
        assert_eq!((e.from, e.to), (1, 2));
    }

    #[test]
    fn wire_type_name_strips_path_and_generics() {
        assert_eq!(wire_type_name::<Unit>(), "Unit");
        assert_eq!(wire_type_name::<Vec<Unit>>(), "Vec");
        assert_eq!(wire_type_name::<Option<Vec<Unit>>>(), "Option");
    }

    #[test]
    fn default_census_records_type_and_words() {
        let mut c = WireCensus::default();
        Wide([0; 3]).census(&mut c);
        Wide([0; 3]).census(&mut c);
        let ty = c.get("Wide").expect("recorded");
        assert_eq!((ty.messages, ty.max_words), (2, 3));
        assert!(ty.fields.is_empty(), "default override reports no fields");
    }

    #[test]
    fn census_keeps_per_field_maxima() {
        let mut c = WireCensus::default();
        let _ = c.record("M", 2).field("a", 7).field_fixed("b", 100, 40);
        let _ = c.record("M", 1).field("a", 3).field_fixed("b", 900, 40);
        let ty = c.get("M").unwrap();
        assert_eq!((ty.messages, ty.max_words), (2, 2));
        assert_eq!(ty.fields[0].max_value, 7);
        assert_eq!((ty.fields[1].max_value, ty.fields[1].frac_bits), (900, 40));
    }

    #[test]
    fn census_types_stay_sorted() {
        let mut c = WireCensus::default();
        let _ = c.record("Zeta", 1);
        let _ = c.record("Alpha", 1);
        let _ = c.record("Mid", 1);
        let names: Vec<&str> = c.types.iter().map(|t| t.type_name.as_str()).collect();
        assert_eq!(names, ["Alpha", "Mid", "Zeta"]);
    }

    #[test]
    fn census_merge_adds_counts_and_maxes_magnitudes() {
        let mut a = WireCensus::default();
        let _ = a.record("M", 2).field("v", 10);
        let _ = a.record("Only", 1);
        let mut b = WireCensus::default();
        let _ = b.record("M", 3).field("v", 4);
        let _ = b.record("M", 1).field("v", 90);
        a.merge(&b);
        let m = a.get("M").unwrap();
        assert_eq!((m.messages, m.max_words), (3, 3));
        assert_eq!(m.fields[0].max_value, 90);
        assert_eq!(a.get("Only").unwrap().messages, 1);
    }
}
