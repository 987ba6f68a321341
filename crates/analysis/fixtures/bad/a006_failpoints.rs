// Fixture: installs a failpoint name that has no fire site anywhere.

use abase_util::failpoint::{self, FaultAction};

pub(crate) fn inject() {
    failpoint::install("wal.append", None, FaultAction::Error, 0, 1);
    failpoint::install("ghost.point", None, FaultAction::Error, 0, 1);
}
