//! Crash-safe artifact writes.
//!
//! Every machine-readable artifact the workspace emits (run manifests,
//! Chrome traces, benchmark reports, analytics) must never be
//! observable half-written: a killed process that leaves a truncated
//! `manifest.jsonl` would make `trace_check` — and a resumed sweep — fail
//! on an artifact the harness itself produced. [`write_atomic`] funnels
//! all of them through the classic write-to-temp-then-rename protocol,
//! with both the file contents and the directory entry fsynced — rename
//! alone survives a process crash but not a host crash, where a
//! renamed-but-unsynced entry can come back pointing at garbage (or
//! nothing).

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers the temp files of one process, so writers on different
/// threads never share one.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fsyncs a directory so a rename performed inside it is durable across
/// a host crash, not just a process crash. (On Linux, directories are
/// opened read-only and fsynced like any other file descriptor.)
///
/// # Errors
///
/// Propagates open/fsync failures.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Writes `contents` to `path` atomically and durably.
///
/// The bytes land in a hidden sibling temp file first
/// (`.<name>.tmp-<pid>-<seq>`, unique per call, same directory so the
/// rename cannot cross a filesystem), are fsynced, then replace `path`
/// in one `rename` step, and the parent directory is fsynced so the
/// rename itself survives a host crash. Readers therefore see either
/// the previous artifact or the complete new one, never a torn mix —
/// even across power loss. Concurrent writers to one `path` all
/// succeed, and the file holds whichever renamed last. Parent
/// directories are created as needed.
///
/// # Errors
///
/// Propagates the first I/O failure; on error the temp file is removed
/// on a best-effort basis and `path` is left untouched.
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    write_atomic_with(path, |w| w.write_all(contents.as_ref()))
}

/// [`write_atomic`] for contents too large to hold at once: `fill`
/// streams them into a buffered writer over the temp file.
///
/// # Errors
///
/// As [`write_atomic`]; an error from `fill` also aborts the write and
/// leaves `path` untouched.
fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    tmp_name.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let write_synced = || -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        fill(&mut w)?;
        w.into_inner()
            .map_err(io::IntoInnerError::into_error)?
            .sync_all()
    };
    write_synced().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    sync_dir(dir.unwrap_or_else(|| Path::new(".")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scalesim-artifact-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_replaces_without_leftover_temp() {
        let dir = scratch("basic");
        let path = dir.join("nested").join("out.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let entries: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, vec![std::ffi::OsString::from("out.json")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_fill_leaves_the_old_file_and_no_temp() {
        let dir = scratch("fill");
        let path = dir.join("out.jsonl");
        write_atomic(&path, "old").unwrap();
        let err = write_atomic_with(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("reader failed"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(entries, vec![std::ffi::OsString::from("out.jsonl")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_path_all_succeed() {
        let dir = scratch("race");
        let path = dir.join("trace.json");
        let contents: Vec<String> = (0..2)
            .map(|i| format!("writer {i} ").repeat(4096))
            .collect();
        let (path, start) = (&path, &std::sync::Barrier::new(contents.len()));
        for _ in 0..20 {
            let results: Vec<io::Result<()>> = std::thread::scope(|s| {
                let writers: Vec<_> = contents
                    .iter()
                    .map(|c| {
                        s.spawn(move || {
                            start.wait();
                            write_atomic(path, c)
                        })
                    })
                    .collect();
                writers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for r in results {
                r.unwrap();
            }
            let got = std::fs::read_to_string(path).unwrap();
            assert!(contents.contains(&got), "torn or foreign contents");
            let entries: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(entries, vec![std::ffi::OsString::from("trace.json")]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_path_without_file_name() {
        assert!(write_atomic(Path::new("/"), "x").is_err());
    }
}
