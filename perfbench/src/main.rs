//! The TeCoRe benchmark: one named workload per process.
//!
//! ```text
//! perfbench --workload <cold_resolve|edit_visible|query_mix|stream_windows>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `tecore-datagen` and the seed. The program is driven
//! only through its public API, and every output is checked against a
//! computation made apart from it (see `check`). The last line of
//! standard output is one JSON object: with `--trace 0` the end-to-end
//! metrics, measured with tracing off; with `--trace 1` the per-layer
//! metrics, derived from spans the benchmark records around its calls
//! into each layer. A traced run also runs the untraced phase first,
//! reports the tracing overhead against it, and writes its spans to
//! `perfbench/out/`.

#![forbid(unsafe_code)]

mod check;
mod cold;
mod common;
mod edit;
mod inputs;
mod query;
mod stats;
mod stream;
mod trace;
mod wire;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use check::Checks;
use common::{Outcome, Phase};
use trace::Tracer;

/// Per-layer metrics with their units, in report order. A workload
/// whose path does not reach a layer reports 0 for it.
const LAYERS: [(&str, &str); 20] = [
    ("ground.ground_ms", "ms"),
    ("ground.atoms", "count"),
    ("ground.clauses", "count"),
    ("mln.solve_ms", "ms"),
    ("mln.components_solved", "count"),
    ("core.interpret_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.query_us", "us"),
    ("core.edit_scaling", "ratio"),
    ("kg.expand_ms", "ms"),
    ("kg.index_ms", "ms"),
    ("wal.recover_ms", "ms"),
    ("wal.bytes_per_edit", "B"),
    ("server.polls_per_edit", "count"),
    ("server.parse_us", "us"),
    ("server.answer_us", "us"),
    ("server.wire_ms", "ms"),
    ("stream.push_us", "us"),
    ("stream.fire_resolve_ms", "ms"),
    ("stream.fire_other_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

fn describe(name: &str, phase: &Phase) {
    let tail = stats::tail(phase.ops.latencies_ms());
    println!(
        "{name}: {} ops ({} failed) in {:.3} s, {:.2} ops/s, p50 {:.3} ms, tail {}",
        phase.ops.attempted(),
        phase.ops.failed_count(),
        phase.elapsed.as_secs_f64(),
        phase.ops_per_s(),
        phase.p50_ms(),
        tail.map_or("none".into(), |t| format!(
            "p{:.2} = {:.3} ms of {} samples",
            t.percentile, t.value, t.samples
        )),
    );
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ));
}

fn report(args: &Args, outcome: &Outcome, correct: bool) -> String {
    let phase = &outcome.phase;
    let mut m = String::from("{");
    if args.trace {
        for (name, unit) in LAYERS {
            metric(
                &mut m,
                name,
                outcome.layers.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
    } else {
        let setups: Vec<f64> = outcome.setups.iter().map(Duration::as_secs_f64).collect();
        let lat = phase.ops.latencies_ms();
        metric(
            &mut m,
            "setup_s",
            stats::median(&setups).unwrap_or(f64::NAN),
            "s",
        );
        metric(&mut m, "ops_per_s", phase.ops_per_s(), "1/s");
        metric(&mut m, "latency_p50_ms", phase.p50_ms(), "ms");
        metric(
            &mut m,
            "latency_tail_ms",
            stats::tail(lat).map_or(f64::NAN, |t| t.value),
            "ms",
        );
        metric(&mut m, "peak_rss_mb", common::peak_rss_mb(), "MB");
    }
    m.push('}');
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {m}}}",
        phase.ops.attempted(),
        phase.ops.failed_count()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut checks = Checks::default();
    let run = match args.workload.as_str() {
        "cold_resolve" => cold::run,
        "edit_visible" => edit::run,
        "query_mix" => query::run,
        "stream_windows" => stream::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(args.seed, args.seconds, &mut tracer, &mut checks) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let setups: Vec<String> = outcome
        .setups
        .iter()
        .map(|d| format!("{:.4}", d.as_secs_f64()))
        .collect();
    println!("set-ups (s): {}", setups.join(" "));
    describe("untraced", &outcome.phase);
    if let Some(traced) = &outcome.traced {
        describe("traced", traced);
        println!(
            "tracing overhead: p50 {:+.2}%, ops/s {:+.2}%",
            100.0 * (traced.p50_ms() / outcome.phase.p50_ms() - 1.0),
            100.0 * (traced.ops_per_s() / outcome.phase.ops_per_s() - 1.0),
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("{} spans written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans failed: {e}"),
        }
    }
    println!("{}", report(&args, &outcome, checks.correct()));
    ExitCode::SUCCESS
}
