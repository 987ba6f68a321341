// Fixture: declares a family the README never mentions.

use abase_obs::LazyCounter;

pub static OPS: LazyCounter = LazyCounter::new("abase_demo_ops_total", "ops served");

pub static HIDDEN: LazyCounter = LazyCounter::new("abase_demo_hidden_total", "no README row");
