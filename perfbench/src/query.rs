//! `query_mix`: pipelined query batches against a server with no edits.
//! One op is one batch of every query verb, from write to last byte.

use std::io;
use std::time::Instant;

use tecore_core::{Engine, Snapshot};
use tecore_server::{proto, Server, ServerConfig};

use crate::check::{self, Checks, FactSet, Probe, Verb};
use crate::common::{self, Outcome, Phase, PhaseClock, SETUPS};
use crate::inputs::{self, Rng};
use crate::stats::{self, Ops};
use crate::trace::Tracer;
use crate::wire::{Client, Header};

/// Distinct batches a run cycles through; every `REPORT_EVERY`-th is a
/// report batch of wide scans, which sets the latency tail.
const BATCHES: usize = 64;
const REPORT_EVERY: usize = 16;
/// In-process replays of each batch behind the per-layer metrics.
const REPLAYS: usize = 4;

struct Batch {
    probes: Vec<Probe>,
    /// The requests, one line each, sent in one write.
    text: String,
    /// What each response must report.
    expected: Vec<usize>,
}

fn answer_size(probe: &Probe, header: &Header) -> Option<usize> {
    match probe.verb {
        Verb::Count => header.count,
        _ => Some(header.lines),
    }
}

fn phase(
    client: &mut Client,
    batches: &[Batch],
    epoch: u64,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> io::Result<Phase> {
    let mut ops = Ops::default();
    let mut clock = PhaseClock::start();
    let mut buf = String::new();
    let mut headers = Vec::with_capacity(inputs::BATCH);
    let mut n = 0;
    while clock.measured().as_secs_f64() < seconds {
        let batch = &batches[n % batches.len()];
        n += 1;
        tracer.next_op();
        buf.clear();
        headers.clear();
        let t0 = Instant::now();
        let span = tracer.begin("query.batch");
        client.send(&batch.text)?;
        for _ in &batch.probes {
            headers.push(client.read_response(&mut buf)?);
        }
        tracer.end(span);
        ops.succeeded(t0.elapsed());
        clock.off(|| {
            for ((probe, header), want) in batch.probes.iter().zip(&headers).zip(&batch.expected) {
                checks.expect(header.ok && header.epoch == Some(epoch), || {
                    format!("{}: bad header in {}", probe.wire(), buf.trim())
                });
                checks.expect_eq(answer_size(probe, header), Some(*want), &probe.wire());
            }
        });
    }
    Ok(Phase {
        ops,
        elapsed: clock.measured(),
    })
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> io::Result<Outcome> {
    let graph = inputs::wikidata(inputs::LARGE, seed);
    let program = inputs::program();
    let subjects = inputs::subjects(&graph);
    let mut rng = Rng::new(seed, 0x0E11);
    let probes: Vec<Vec<Probe>> = (0..BATCHES)
        .map(|i| inputs::query_batch(&mut rng, &subjects, i % REPORT_EVERY == REPORT_EVERY - 1))
        .collect();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut served: Option<(Server, Client)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = served.take() {
            old.crash();
        }
        let (graph, program, config) = (graph.clone(), program.clone(), inputs::config());
        let mut buf = String::new();
        let t0 = Instant::now();
        let engine = tracer.time("core.construct", || {
            Engine::with_config(graph, program, config)
        });
        let start = tracer.begin("server.start");
        let server = Server::start(engine, ServerConfig::default())?;
        tracer.end(start);
        let mut client = Client::connect(server.local_addr())?;
        let header = tracer.time("server.first_query", || {
            client.request("COUNT p=spouse", &mut buf)
        })?;
        setups.push(t0.elapsed());
        checks.expect(header.ok, || format!("first query: {}", buf.trim()));
        let s = &server.snapshot().stats;
        tracer.attr(start, "ground_ms", stats::ms(s.grounding_time));
        tracer.attr(start, "solve_ms", stats::ms(s.solve_time));
        tracer.attr(start, "atoms", s.atoms as f64);
        tracer.attr(start, "clauses", s.clauses as f64);
        tracer.attr(start, "components_solved", s.components_solved as f64);
        served = Some((server, client));
    }
    let (server, mut client) = served.expect("at least one set-up");
    let snapshot = server.snapshot();
    check::check_snapshot(
        checks,
        &snapshot,
        FactSet::of_graph(&graph),
        "served snapshot",
    );
    let rows = check::rows(snapshot.expanded());
    let batches: Vec<Batch> = probes
        .into_iter()
        .map(|probes| Batch {
            text: probes.iter().map(|p| p.wire() + "\n").collect(),
            expected: probes.iter().map(|p| p.expected(&rows)).collect(),
            probes,
        })
        .collect();
    drop(rows);

    let epoch = snapshot.epoch();
    let mut outcome = Outcome {
        setups,
        ..Outcome::default()
    };
    outcome.phase = phase(
        &mut client,
        &batches,
        epoch,
        seconds,
        &mut Tracer::new(false),
        checks,
    )?;
    if tracer.is_on() {
        outcome.traced = Some(phase(
            &mut client,
            &batches,
            epoch,
            seconds,
            tracer,
            checks,
        )?);
        let replayed = replay(&snapshot, &batches, tracer, checks);
        let layers = &mut outcome.layers;
        common::resolve_layers(tracer, "server.start", layers);
        let us = |name: &str| -> f64 {
            let v: Vec<f64> = tracer.durations_ms(name).iter().map(|m| m * 1e3).collect();
            common::med(&v)
        };
        layers.insert("server.parse_us", us("server.parse"));
        layers.insert("server.answer_us", us("server.answer"));
        layers.insert("core.query_us", us("core.query"));
        layers.insert(
            "kg.expand_ms",
            common::med(&tracer.durations_ms("kg.expand")),
        );
        layers.insert("kg.index_ms", common::med(&tracer.durations_ms("kg.index")));
        layers.insert(
            "server.wire_ms",
            outcome.phase.p50_ms() - common::med(&replayed),
        );
    }
    server.crash();
    Ok(outcome)
}

/// Replays every batch in process on the served snapshot through the
/// server's protocol functions, and each query through the query layer.
/// Returns the batch durations in ms.
fn replay(
    snapshot: &Snapshot,
    batches: &[Batch],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<f64> {
    let mut out = String::new();
    let mut batch_ms = Vec::new();
    for _ in 0..REPLAYS {
        for batch in batches {
            tracer.next_op();
            out.clear();
            let t0 = Instant::now();
            for line in batch.text.lines() {
                let request = tracer.time("server.parse", || proto::parse(line));
                if let Ok(proto::Request::Query(kind, clauses)) = request {
                    let _ = tracer.time("server.answer", || {
                        proto::answer_query(snapshot, kind, &clauses, &mut out)
                    });
                }
            }
            batch_ms.push(stats::ms(t0.elapsed()));
            for (probe, want) in batch.probes.iter().zip(&batch.expected) {
                let got = tracer.time("core.query", || common::run_probe(snapshot, probe));
                checks.expect_eq(got, *want, &probe.wire());
            }
        }
    }
    for _ in 0..REPLAYS {
        let fresh = Snapshot::from_resolution(snapshot.resolution().clone(), snapshot.epoch());
        common::materialise(tracer, &fresh);
    }
    batch_ms
}
