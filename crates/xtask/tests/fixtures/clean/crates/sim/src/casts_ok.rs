//! Passing fixture: widening and literal casts, and floats only as
//! conversion locals and return types.

pub fn widen(x: u32) -> u64 {
    let tag = 0x1f as u8;
    u64::from(x) + x as u64 + u64::from(tag)
}

pub fn ratio(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}
