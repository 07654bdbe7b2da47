//! `--agree`: do two sets of runs of the same code agree within the
//! benchmark's own bounds? Runs two interleaved sets A, B, A, B, … of
//! `runs` untraced runs per workload, each run a fresh process with its own
//! seed, and prints per metric × workload both medians and quartiles, the
//! relative difference of the medians in the worse direction, the pooled
//! spread (quartile distance over median of all 2·`runs` values), and
//! PASS / FAIL against the metric's bound. This is the check the
//! benchmark's acceptance is decided by, runnable by hand.

use crate::report::{END_TO_END, WORKLOADS};
use crate::stats;
use std::process::Command;

/// The value of metric `name` on a result line.
fn metric_on(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Runs one untraced run in a child process and returns its result line.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {line}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(line)
}

pub fn run(only: Option<&str>, runs: usize, seconds: f64, seed: u64) -> Result<bool, String> {
    if runs < 2 {
        return Err(
            "--agree needs --runs of at least 2 (quartiles of one value do not exist)".into(),
        );
    }
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    // values[workload][metric][set] -> one value per run
    let mut values = vec![vec![[Vec::new(), Vec::new()]; END_TO_END.len()]; workloads.len()];
    let mut next_seed = seed;
    for rep in 0..runs {
        for set in 0..2 {
            for (wi, w) in workloads.iter().enumerate() {
                let line = child(w, next_seed, seconds)?;
                eprintln!(
                    "agree: rep {rep} set {} {w} seed {next_seed}: {line}",
                    ["A", "B"][set]
                );
                for (mi, m) in END_TO_END.iter().enumerate() {
                    let v = metric_on(&line, m.0)
                        .ok_or(format!("{w}: no {} on the result line", m.0))?;
                    values[wi][mi][set].push(v);
                }
                next_seed += 1;
            }
        }
    }
    println!(
        "agreement of two interleaved sets of {runs} runs each, {seconds} s per run, seeds {seed}..{}",
        next_seed - 1
    );
    println!(
        "{:<13} {:<15} {:>12} {:>25} {:>12} {:>25} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "worse",
        "spread",
        "bound"
    );
    let mut all_pass = true;
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, &(name, _, better, bound)) in END_TO_END.iter().enumerate() {
            let [a, b] = &values[wi][mi];
            let ([a1, a2, a3], [b1, b2, b3]) = (stats::quartiles(a), stats::quartiles(b));
            // How much worse the second set's median is than the first's.
            let worse = if better == "higher" {
                (a2 - b2) / a2
            } else {
                (b2 - a2) / a2
            };
            let pooled: Vec<f64> = a.iter().chain(b).copied().collect();
            let spread = stats::iqr_share(&pooled);
            // setup_s is exempt from the spread rule, as in the acceptance.
            let pass = worse <= bound && (name == "setup_s" || spread <= bound);
            all_pass &= pass;
            println!(
                "{w:<13} {name:<15} {a2:>12.5} {:>25} {b2:>12.5} {:>25} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                format!("[{a1:.5}, {a3:.5}]"),
                format!("[{b1:.5}, {b3:.5}]"),
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("agree: {}", if all_pass { "PASS" } else { "FAIL" });
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_read_off_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
            \"throughput_rps\": {\"value\": 5123.25, \"unit\": \"1/s\"}, \
            \"setup_s\": {\"value\": 0.0817, \"unit\": \"s\"}}}";
        assert_eq!(metric_on(line, "throughput_rps"), Some(5123.25));
        assert_eq!(metric_on(line, "setup_s"), Some(0.0817));
        assert_eq!(metric_on(line, "latency_p50_ms"), None);
    }
}
