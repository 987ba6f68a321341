// Fixture: every installed failpoint has a matching fire site.

use abase_util::failpoint::{self, FaultAction};

pub(crate) fn inject() {
    failpoint::install("wal.append", None, FaultAction::Error, 0, 1);
    failpoint::install(
        "db.checkpoint",
        None,
        FaultAction::DelayMs(5),
        0,
        2,
    );
}

pub(crate) fn hot_path(context: &str) {
    if failpoint::check("wal.append", context).is_some() {
        return;
    }
    let _ = failpoint::check("db.checkpoint", context);
}
