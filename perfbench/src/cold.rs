//! `cold_resolve`: the paper's batch job. Each op resolves the 32k
//! graph from scratch, materialises the snapshot and answers one query.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tecore_core::{Engine, Snapshot};

use crate::check::{self, Checks, FactSet, Probe};
use crate::common::{self, Outcome, Phase, PhaseClock, SETUPS};
use crate::inputs::{self, Rng};
use crate::stats::Ops;
use crate::trace::Tracer;

struct Cold {
    engine: Engine,
    input: FactSet,
    probes: Vec<Probe>,
}

impl Cold {
    /// One resolve-until-queryable, with its checks off the clock.
    fn op(
        &mut self,
        n: usize,
        tracer: &mut Tracer,
        checks: &mut Checks,
        clock: &mut PhaseClock,
    ) -> io::Result<Duration> {
        let probe = &self.probes[n % self.probes.len()];
        tracer.next_op();
        let t0 = Instant::now();
        let snapshot = common::traced_resolve(tracer, "core.resolve", || self.engine.resolve())?;
        common::materialise(tracer, &snapshot);
        let answer = tracer.time("core.query", || common::run_probe(&snapshot, probe));
        let latency = t0.elapsed();
        clock.off(|| check(checks, &snapshot, self.input, probe, answer));
        Ok(latency)
    }

    fn phase(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> io::Result<Phase> {
        let mut ops = Ops::default();
        let mut clock = PhaseClock::start();
        let mut n = 0;
        while clock.measured().as_secs_f64() < seconds {
            ops.succeeded(self.op(n, tracer, checks, &mut clock)?);
            n += 1;
        }
        Ok(Phase {
            ops,
            elapsed: clock.measured(),
        })
    }
}

fn check(checks: &mut Checks, snapshot: &Snapshot, input: FactSet, probe: &Probe, answer: usize) {
    check::check_snapshot(checks, snapshot, input, "cold resolve");
    let rows = check::rows(snapshot.expanded());
    checks.expect_eq(answer, probe.expected(&rows), &probe.wire());
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> io::Result<Outcome> {
    let graph = inputs::wikidata(inputs::LARGE, seed);
    let input = FactSet::of_graph(&graph);
    let program = inputs::program();
    let probes = inputs::query_templates(
        &mut Rng::new(seed, 0xC01D),
        &inputs::subjects(&graph),
        false,
    );

    let mut setups = Vec::with_capacity(SETUPS);
    let mut last: Option<(Engine, Arc<Snapshot>)> = None;
    for _ in 0..SETUPS {
        let (graph, program, config) = (graph.clone(), program.clone(), inputs::config());
        let t0 = Instant::now();
        let mut engine = tracer.time("core.construct", || {
            Engine::with_config(graph, program, config)
        });
        let snapshot = common::traced_resolve(tracer, "core.resolve", || engine.resolve())?;
        common::materialise(tracer, &snapshot);
        let answer = tracer.time("core.query", || common::run_probe(&snapshot, &probes[0]));
        setups.push(t0.elapsed());
        check(checks, &snapshot, input, &probes[0], answer);
        last = Some((engine, snapshot));
    }
    let (engine, snapshot) = last.expect("at least one set-up");
    println!(
        "cold_resolve: {} input facts, {} kept, {} removed, MAP cost {:.1}, {} components",
        input.count,
        snapshot.consistent.len(),
        snapshot.removed.len(),
        snapshot.stats.cost,
        snapshot.stats.components
    );
    let mut cold = Cold {
        engine,
        input,
        probes,
    };
    drop(snapshot);

    let mut outcome = Outcome {
        setups,
        ..Outcome::default()
    };
    outcome.phase = cold.phase(seconds, &mut Tracer::new(false), checks)?;
    if tracer.is_on() {
        outcome.traced = Some(cold.phase(seconds, tracer, checks)?);
        let layers = &mut outcome.layers;
        common::resolve_layers(tracer, "core.resolve", layers);
        layers.insert(
            "kg.expand_ms",
            common::med(&tracer.durations_ms("kg.expand")),
        );
        layers.insert("kg.index_ms", common::med(&tracer.durations_ms("kg.index")));
        let query_us: Vec<f64> = tracer
            .durations_ms("core.query")
            .iter()
            .map(|m| m * 1e3)
            .collect();
        layers.insert("core.query_us", common::med(&query_us));
    }
    Ok(outcome)
}
