// Fixture: every declared family has a README row and vice versa. The
// declaration split over two lines and the one inside a test module are the
// constructs the rule must read correctly.

use abase_obs::{LazyCounter, LazyGaugeFamily, LazyHisto};

pub(crate) static OPS: LazyCounter = LazyCounter::new("abase_demo_ops_total", "ops served");

pub(crate) static LAG: LazyGaugeFamily =
    LazyGaugeFamily::new("abase_demo_lag", "replica", "lag by replica");

pub(crate) static PUMP: LazyHisto = LazyHisto::new(
    "abase_demo_pump_micros",
    "pump latency",
);

#[cfg(test)]
mod tests {
    use super::*;
    static SCRATCH: LazyCounter = LazyCounter::new("test_scratch_total", "test only");
}
