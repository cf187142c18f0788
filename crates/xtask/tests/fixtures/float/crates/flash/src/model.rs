//! Violating fixture: a float field in sim-visible state, and a float
//! alias that would smuggle one into `Aged` under another name.

pub struct WearModel {
    pub factor: f64,
}

pub type Ratio = f64;

pub struct Aged {
    pub ratio: Ratio,
}
