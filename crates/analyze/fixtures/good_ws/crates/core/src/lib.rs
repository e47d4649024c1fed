//! Fixture: a clean protocol file — a justified allowlist entry and a
//! SAFETY-commented unsafe block. drw-analyze's self-tests assert this
//! tree produces zero findings with exactly one allowlist entry in
//! effect.

pub fn histogram() {
    // drw-analyze: allow(hash-collections, fixture: test-only histogram, order never observed)
    let mut h = HashMap::new();
    h.insert(1u32, 1u32);
}

// SAFETY: fixture — the pointee outlives the call by construction.
pub unsafe fn read_raw(p: *const u8) -> u8 {
    *p
}
