//! `perfbench` — the calibre-rs benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs, and prints every
//! metric by name with its unit; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off. With `--trace 1` they are the per-layer ones: the layer suite, then
//! the workload untraced and traced for half the time each, whose ratio is
//! the tracing overhead; the spans are written to
//! `<binary dir>/perfbench-out/traces/`. Exits 1 when an output check
//! fails and 2 on bad arguments.

mod cohort;
mod layers;
mod serve;
mod stats;
mod trace;
mod train;
mod workload;

use std::time::Duration;
use trace::Tracer;
use workload::{peak_rss_mib, Metric, RunSpec, WorkloadRun, WORKLOADS};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, spec: &RunSpec<'_>) -> WorkloadRun {
    match name {
        "train-calibre" => train::run_calibre(spec),
        "train-fedavg" => train::run_fedavg(spec),
        "serve-wire" => serve::run(spec),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// The end-to-end metrics of a run, in `BENCHMARK.json` order.
fn end_to_end(run: &WorkloadRun, rss_mib: f64) -> Vec<Metric> {
    let (_, tail) = run.round_tail();
    vec![
        Metric::new("setup_s", stats::median(&run.setup_s), "s"),
        Metric::new("rounds_per_s", run.rounds_per_s(), "1/s"),
        Metric::new("round_ms.p50", stats::median(&run.round_ms()), "ms"),
        Metric::new("round_ms.tail", tail, "ms"),
        Metric::new("peak_rss_mib", rss_mib, "MiB"),
    ]
}

/// Prints what a run did beyond its gated metrics: sample counts, the
/// tail's percentile, work per round, failure accounting, checks.
fn describe(label: &str, run: &WorkloadRun) {
    let (p, _) = run.round_tail();
    println!(
        "{label}: {} rounds in {:.3} s over {} segments ({}); round_ms.tail is p{p} of {} samples, \
         the median over segments of each segment's p{p}",
        run.rounds(),
        run.wall_s(),
        run.segments.len(),
        run.round_note,
        run.round_ms().len()
    );
    println!(
        "{label}: setup_s is the median of {} set-ups; work per round {:.0} {}",
        run.setup_s.len(),
        run.work_per_round.0,
        run.work_per_round.1
    );
    for m in &run.info {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let failed_checks = run.checks.iter().filter(|c| !c.ok).count() as u64;
    let failed = run.updates_failed + failed_checks;
    println!(
        "metric failed_share = {} fraction ({} dropped or rejected updates + {} failed checks, over {} updates attempted)",
        failed as f64 / run.updates_attempted.max(1) as f64,
        run.updates_failed,
        failed_checks,
        run.updates_attempted
    );
    for c in &run.checks {
        println!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let measure = Duration::from_secs_f64(args.seconds);

    let (metrics, runs) = if args.trace {
        let tracer = Tracer::new();
        let mut metrics = layers::suite(args.seed, &tracer);
        let half = measure / 2;
        let untraced = run_workload(
            &args.workload,
            &RunSpec {
                seed: args.seed,
                measure: half,
                tracer: None,
            },
        );
        let traced = run_workload(
            &args.workload,
            &RunSpec {
                seed: args.seed,
                measure: half,
                tracer: Some(&tracer),
            },
        );
        metrics.push(Metric::new(
            "telemetry.trace_overhead",
            traced.rounds_per_s() / untraced.rounds_per_s(),
            "ratio",
        ));
        let path = workload::output_dir()
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok((kept, dropped)) => println!(
                "trace: {kept} spans written to {} ({dropped} more counted, not kept)",
                path.display()
            ),
            Err(e) => println!("trace: cannot write {}: {e}", path.display()),
        }
        println!(
            "{:<32} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in tracer.self_times() {
            println!(
                "{:<32} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        (metrics, vec![("untraced", untraced), ("traced", traced)])
    } else {
        let run = run_workload(
            &args.workload,
            &RunSpec {
                seed: args.seed,
                measure,
                tracer: None,
            },
        );
        let metrics = end_to_end(&run, peak_rss_mib());
        println!(
            "metric machine.ref_kernel_ms = {} ms (machine factor, not gated)",
            layers::ref_kernel_ms()
        );
        (metrics, vec![("run", run)])
    };

    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    for (label, run) in &runs {
        describe(label, run);
        let failed_checks = run.checks.iter().filter(|c| !c.ok).count() as u64;
        attempted += run.updates_attempted;
        failed += run.updates_failed + failed_checks;
        correct &= failed_checks == 0 && run.updates_failed == 0 && !run.checks.is_empty();
    }
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            println!(
                "check metric_finite FAILED: {} is not a finite number",
                m.name
            );
            correct = false;
            failed += 1;
        }
    }
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve-wire --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-wire".into(),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--workload train-calibre --trace 2",
            "--workload train-calibre --seconds 0",
            "--workload train-calibre --seed",
            "--seed 3",
            "--workload train-calibre --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 10, 0, &[Metric::new("setup_s", 0.5, "s")]);
        let v = calibre_telemetry::JsonValue::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.5));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
