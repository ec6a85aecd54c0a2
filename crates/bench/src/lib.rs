//! Shared helpers for the `repro` harness: scale parsing and the
//! experiment runner. The crate reads no clock (`mcs-lint`'s R2 covers
//! it); wall-clock timing lives in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mcs::{ExperimentId, ExperimentSuite, ReproConfig, Scale};

/// Parses a scale name.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s.to_ascii_lowercase().as_str() {
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        "large" => Ok(Scale::Large),
        other => Err(format!("unknown scale: {other} (small|medium|large)")),
    }
}

/// Runs the given experiments (all of them when `which` is empty) with
/// `threads` pipeline workers (`0` = one per core; results are identical
/// for any value) and returns the rendered output and whether every shape
/// check held.
pub fn run_experiments(
    scale: Scale,
    seed: u64,
    threads: usize,
    which: &[ExperimentId],
) -> (String, bool) {
    let mut suite = ExperimentSuite::new(ReproConfig::new(scale, seed).with_threads(threads));
    let reports: Vec<_> = if which.is_empty() {
        suite.run_all()
    } else {
        which.iter().map(|&id| suite.run(id)).collect()
    };
    let mut out = String::new();
    let mut all_ok = true;
    for r in &reports {
        out.push_str(&r.render());
        out.push('\n');
        all_ok &= r.all_ok();
    }
    out.push_str(&format!(
        "{} experiment(s) run; shape checks: {}\n",
        reports.len(),
        if all_ok {
            "all ok"
        } else {
            "MISMATCHES PRESENT"
        }
    ));
    (out, all_ok)
}

/// Like [`run_experiments`], but also writes each report to
/// `<dir>/<id>.txt` (creating the directory) so figure data can be fed to
/// external plotting.
pub fn run_and_export(
    scale: Scale,
    seed: u64,
    threads: usize,
    which: &[ExperimentId],
    dir: &std::path::Path,
) -> std::io::Result<(String, bool)> {
    std::fs::create_dir_all(dir)?;
    let mut suite = ExperimentSuite::new(ReproConfig::new(scale, seed).with_threads(threads));
    let ids: Vec<ExperimentId> = if which.is_empty() {
        ExperimentId::all().to_vec()
    } else {
        which.to_vec()
    };
    let mut out = String::new();
    let mut all_ok = true;
    for id in ids {
        let r = suite.run(id);
        std::fs::write(dir.join(format!("{id}.txt")), r.render())?;
        out.push_str(&r.render());
        out.push('\n');
        all_ok &= r.all_ok();
    }
    out.push_str(&format!(
        "reports exported to {}; shape checks: {}\n",
        dir.display(),
        if all_ok {
            "all ok"
        } else {
            "MISMATCHES PRESENT"
        }
    ));
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("small").unwrap(), Scale::Small);
        assert_eq!(parse_scale("MEDIUM").unwrap(), Scale::Medium);
        assert!(parse_scale("huge").is_err());
    }

    #[test]
    fn single_experiment_runs() {
        let (out, _ok) = run_experiments(Scale::Small, 5, 0, &[ExperimentId::T1]);
        assert!(out.contains("Table 1"));
    }

    #[test]
    fn export_writes_report_files() {
        let dir = std::env::temp_dir().join("mcs-repro-export-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (out, _ok) =
            run_and_export(Scale::Small, 5, 0, &[ExperimentId::T1], &dir).expect("export");
        assert!(out.contains("exported"));
        let text = std::fs::read_to_string(dir.join("t1.txt")).expect("file written");
        assert!(text.contains("Table 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
