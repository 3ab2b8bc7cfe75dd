//! The run's environment: refused variables, pinned knobs, and the
//! facts every result records.

use crate::stats::Fnv;
use std::path::{Path, PathBuf};

/// Variables that would silently change what a workload runs (server
/// and client knobs, injected faults, GEMM blocking). The benchmark sets
/// every option itself, so it refuses to start when any is set.
pub fn refused_variables() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            k.starts_with("YF_SERVE_")
                || k.starts_with("YF_CHAOS")
                || k == "YF_FAULT"
                || k == "YF_GEMM_BLOCKS"
        })
        .collect()
}

/// Online CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the kernel pool to `nproc` workers for this process and for the
/// fleet workers it spawns. Must run before anything touches the pool.
pub fn pin_pool_width() {
    let n = nproc().to_string();
    if let Ok(prev) = std::env::var("YF_NUM_THREADS") {
        if prev != n {
            eprintln!("perfbench: YF_NUM_THREADS={prev} overridden to {n} (nproc)");
        }
    }
    std::env::set_var("YF_NUM_THREADS", n);
}

/// Peak resident set of this process in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `path` (longest matching mount point).
pub fn filesystem_of(path: &Path) -> String {
    let abs = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fs)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        let mnt = mnt.replace("\\040", " ");
        if abs.starts_with(&mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The checked-out commit, read from `.git` without running git, or
/// `"none"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over every Rust source and manifest of the program's crates,
/// in path order: identifies the code under test where no commit is
/// available.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.bytes(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// `key=value` facts recorded with every result.
pub fn facts(root: &Path, work: &Path) -> Vec<(String, String)> {
    let b = yf_tensor::gemm::blocks();
    vec![
        ("nproc".into(), nproc().to_string()),
        (
            "pool_width".into(),
            yf_tensor::parallel::num_threads().to_string(),
        ),
        ("simd".into(), yf_tensor::gemm::detected_simd().to_string()),
        ("gemm_blocks".into(), format!("{},{},{}", b.mc, b.kc, b.nc)),
        ("work_fs".into(), filesystem_of(work)),
        ("commit".into(), commit(root)),
        ("source_fnv".into(), source_digest(root)),
    ]
}
