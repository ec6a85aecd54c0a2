//! Planted R2 violation: wall-clock read in library code.

pub fn stamp() -> u64 {
    let _t = std::time::Instant::now();
    0
}
