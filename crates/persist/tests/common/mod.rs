//! The scratch store file shared by the persist integration tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A store file of one case's own in the temp dir, removed when dropped, so
/// a run leaves nothing behind, failed cases included.
pub struct CaseFile(PathBuf);

impl CaseFile {
    pub fn new(prefix: &str) -> CaseFile {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        CaseFile(std::env::temp_dir().join(format!(
            "sparqlog-{}-test-{}-{prefix}-{n}.sqps",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        )))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for CaseFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
