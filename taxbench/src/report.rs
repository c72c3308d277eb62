//! Named metrics with units and sample counts, and the process- and
//! disk-level measurements.

use crate::stats::windowed;
use std::path::Path;

/// Metrics by name, each printed with its unit and sample count.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub lines: Vec<String>,
    pub refused: Vec<String>,
    /// When set, only these metrics go into the result line. The others
    /// are printed with `(no bound)`, and their refusal does not fail the
    /// run.
    pub bounded: Option<&'static [&'static str]>,
}

impl Report {
    fn aside(&self, name: &str) -> bool {
        self.bounded.is_some_and(|b| !b.contains(&name))
    }

    fn keep(&mut self, name: &str, value: f64, unit: &'static str, counts: String) {
        let aside = self.aside(name);
        self.lines.push(format!(
            "{name:<40} {value:>14.3} {unit:<6} ({counts}){}",
            if aside { " (no bound)" } else { "" }
        ));
        if !aside {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.keep(name, value, unit, format!("n={n}"));
    }

    /// Percentile `p` of a run's rounds as [`windowed`] takes it, printed
    /// with the sample and window counts, or a refusal when too few samples
    /// lie beyond it.
    pub fn pct(&mut self, name: &str, rounds: &[Vec<f64>], p: f64) -> Option<f64> {
        let n: usize = rounds.iter().map(Vec::len).sum();
        match windowed(rounds, p) {
            Some((v, windows)) => {
                self.keep(name, v, "us", format!("n={n}, windows={windows}"));
                Some(v)
            }
            None => {
                self.lines.push(format!(
                    "{name:<40} {:>14} {:<6} (n={n}: too few samples beyond p{})",
                    "refused",
                    "us",
                    p * 100.0
                ));
                if !self.aside(name) {
                    self.refused.push(name.to_string());
                }
                None
            }
        }
    }

    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every shard log of the store at `path`.
pub fn log_bytes(path: &Path) -> u64 {
    let dir = path.parent().expect("store path has a directory");
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name == "store.db" || name.ends_with(".log")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
