//! What the benchmark reads from the host: cores, peak memory, bytes on disk.

use std::path::{Path, PathBuf};

/// Engine threads, shards and producer threads used everywhere: never more
/// threads than cores, and never more than two.
pub fn threads() -> usize {
    cores().min(2)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Parses the `VmHWM` line (peak resident set, in KiB) out of
/// `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("read /proc/self/status: {err}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// A scratch directory removed when dropped — on success, on a failed
/// correctness gate and on a panic that unwinds.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out>/tmp-<pid>-<label>`, empty.
    pub fn create(out: &Path, label: &str) -> Result<Self, String> {
        let path = out.join(format!("tmp-{}-{label}", std::process::id()));
        // A stale directory can only be left by a killed process that had the
        // same pid; the store must start empty.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|err| format!("create {}: {err}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_line_is_parsed_in_kib() {
        let status =
            "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_234));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_sized() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = ScratchDir::create(&out, "unit").unwrap();
        std::fs::create_dir_all(scratch.path().join("nested")).unwrap();
        std::fs::write(scratch.path().join("a"), [0u8; 10]).unwrap();
        std::fs::write(scratch.path().join("nested/b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(scratch.path()).unwrap(), 15);
        let path = scratch.path().to_path_buf();
        drop(scratch);
        assert!(!path.exists());
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
