//! Landing a checkpoint stream on disk.
//!
//! [`Db::checkpoint_with`](crate::Db::checkpoint_with) hands its snapshot to
//! a sink as `(file name, chunk)` pairs. [`Staging`] is the one writer that
//! turns such pairs back into files: a local checkpoint, a resync ticket's
//! copy and a socket follower's `FILE` frames all land through it.

use crate::{Error, Result};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Refuse a checkpoint file name that is not a plain file name: a hostile
/// or corrupted name must never escape the staging directory.
pub fn check_file_name(name: &str) -> Result<()> {
    if name.is_empty() || name.contains(['/', '\\']) || name.contains("..") {
        return Err(Error::InvalidState(format!(
            "checkpoint file name escapes the staging dir: {name:?}"
        )));
    }
    Ok(())
}

/// A directory a checkpoint stream is being staged into.
///
/// The tree is removed when the value is dropped, unless [`Staging::keep`]
/// ran first: a stream that fails part way leaves nothing behind.
#[derive(Debug)]
pub struct Staging {
    dir: PathBuf,
    /// The file the last chunk went to; the next chunk of the same name
    /// appends to it.
    open: Option<(String, File)>,
    kept: bool,
}

impl Staging {
    /// Start staging into `dir`, replacing whatever was there.
    pub fn create(dir: &Path) -> Result<Self> {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            open: None,
            kept: false,
        })
    }

    /// Land one `(name, chunk)` pair: a name other than the previous pair's
    /// creates (truncates) its file, a repeat appends. A producer emits each
    /// file's chunks back to back, and an empty file as one empty chunk.
    pub fn write(&mut self, name: &str, chunk: &[u8]) -> Result<()> {
        let file = match &mut self.open {
            Some((open, file)) if open == name => file,
            slot => {
                check_file_name(name)?;
                let file = File::create(self.dir.join(name))?;
                &mut slot.insert((name.to_string(), file)).1
            }
        };
        file.write_all(chunk)?;
        Ok(())
    }

    /// The stream is complete: keep the staged tree.
    pub fn keep(mut self) {
        self.kept = true;
    }
}

impl Drop for Staging {
    fn drop(&mut self) {
        if !self.kept {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::TestDir;

    #[test]
    fn chunks_append_per_name_and_a_dropped_stage_leaves_nothing() {
        let root = TestDir::new("staging");
        let dir = root.path().join("stage");
        let mut stage = Staging::create(&dir).unwrap();
        stage.write("a", b"12").unwrap();
        stage.write("a", b"34").unwrap();
        stage.write("empty", b"").unwrap();
        assert_eq!(std::fs::read(dir.join("a")).unwrap(), b"1234");
        assert_eq!(std::fs::read(dir.join("empty")).unwrap(), b"");
        drop(stage);
        assert!(!dir.exists(), "an unkept stage must be removed");
        let mut stage = Staging::create(&dir).unwrap();
        stage.write("b", b"x").unwrap();
        stage.keep();
        assert_eq!(std::fs::read(dir.join("b")).unwrap(), b"x");
    }
}
