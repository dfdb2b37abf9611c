//! `stream_windows`: the generated event stream pushed through a
//! sliding-window session with one continuous query. One op is one
//! pushed event; latency is taken on the pushes that fire a window.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tecore_core::{Engine, Snapshot};
use tecore_kg::{StreamEvent, UtkGraph};
use tecore_stream::{QuerySpec, StreamSession, WindowFire, WindowResult, WindowSpec};

use crate::check::{self, Checks, ModelFire, Probe, Verb, WindowModel};
use crate::common::{self, Layers, Outcome, Phase, PhaseClock, SETUPS};
use crate::inputs::{self, LATENESS, SLIDE, WIDTH};
use crate::stats::{self, Ops};
use crate::trace::{SpanId, Tracer};

/// Set-up runs the stream until the window has slid across its whole
/// width once, so the measured fires see a full live population.
const FILL: usize = (WIDTH / SLIDE) as usize;
/// Events generated at a time, off the clock, as the stream runs.
const SEGMENT: usize = 50_000;
/// Traced runs replay the materialisation of every n-th fired snapshot.
const MATERIALISE_EVERY: usize = 10;

/// The continuous query: confident `playsFor` spells.
fn continuous() -> (QuerySpec, Probe) {
    let spec = QuerySpec::new().predicate("playsFor").min_confidence(0.7);
    let mut probe = Probe::new(Verb::Count);
    probe.predicate = Some("playsFor".into());
    probe.min_confidence = Some(0.7);
    (spec, probe)
}

/// Continuous-query answers as `(epoch, total)`, in fire order.
type Answers = Arc<Mutex<Vec<(u64, usize)>>>;

/// The endless event stream of a seed, generated in segments that each
/// start after the last event time of the one before. As a segment is
/// made, the window model works out the fires each event should cause.
struct Events {
    seed: u64,
    segment: u64,
    start: i64,
    model: WindowModel,
    queue: VecDeque<(StreamEvent, Vec<ModelFire>)>,
}

impl Events {
    fn new(seed: u64) -> Events {
        Events {
            seed,
            segment: 0,
            start: 0,
            model: WindowModel::new(WIDTH, SLIDE, LATENESS),
            queue: VecDeque::new(),
        }
    }

    fn refill(&mut self) {
        let events = inputs::stream(SEGMENT, self.seed, self.segment, self.start);
        self.segment += 1;
        self.start = events.iter().map(|e| e.time).max().unwrap_or(self.start) + 1;
        for event in events {
            let fires = self.model.push(&event);
            self.queue.push_back((event, fires));
        }
    }

    /// The next event and the fires the model expects it to cause.
    fn next(&mut self) -> (StreamEvent, Vec<ModelFire>) {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front().expect("a segment holds events")
    }
}

struct Stream {
    session: StreamSession,
    answers: Answers,
    events: Events,
    fired: usize,
    probe: Probe,
}

/// A fresh session over an empty graph with the continuous query
/// registered.
fn open_session() -> (StreamSession, Answers) {
    let engine = Engine::with_config(UtkGraph::new(), inputs::stream_program(), inputs::config());
    let window = WindowSpec::sliding(WIDTH, SLIDE).expect("slide divides width");
    let mut session = StreamSession::with_lateness(engine, window, LATENESS);
    let answers: Answers = Arc::default();
    let sink = Arc::clone(&answers);
    session.register_query(continuous().0, move |_, result: &WindowResult| {
        sink.lock()
            .expect("sink lock")
            .push((result.epoch, result.total));
    });
    (session, answers)
}

impl Stream {
    fn new((session, answers): (StreamSession, Answers), seed: u64) -> Stream {
        Stream {
            session,
            answers,
            events: Events::new(seed),
            fired: 0,
            probe: continuous().1,
        }
    }

    /// Checks fires against the window model's, the constraint checker
    /// and a brute-force count of the continuous query.
    fn check(&mut self, fires: &[WindowFire], expected: &[ModelFire], checks: &mut Checks) {
        let answers: Vec<(u64, usize)> =
            std::mem::take(&mut *self.answers.lock().expect("sink lock"));
        checks.expect_eq(
            answers.len(),
            fires.len(),
            "continuous-query answers per fire",
        );
        checks.expect_eq(fires.len(), expected.len(), "fires per push");
        for ((fire, answer), want) in fires.iter().zip(answers).zip(expected) {
            self.fired += 1;
            let s = &fire.stats;
            checks.expect_eq(
                (s.end, s.admitted, s.expired),
                (want.end, want.admitted, want.expired),
                "fire (end, admitted, expired)",
            );
            let what = format!("window ending {}", s.end);
            check::check_snapshot(checks, &fire.snapshot, want.live, &what);
            let rows = check::rows(fire.snapshot.expanded());
            checks.expect_eq(
                answer,
                (fire.snapshot.epoch(), self.probe.expected(&rows)),
                &format!("{what}: continuous query (epoch, total)"),
            );
        }
    }

    /// Pushes `count` events as set-up; returns how long the pushes took.
    fn set_up(&mut self, count: usize, checks: &mut Checks) -> io::Result<Duration> {
        let (events, expected): (Vec<StreamEvent>, Vec<Vec<ModelFire>>) =
            (0..count).map(|_| self.events.next()).unzip();
        let expected: Vec<ModelFire> = expected.into_iter().flatten().collect();
        let mut fires = Vec::new();
        let t0 = Instant::now();
        for event in events {
            fires.extend(self.session.push(event).map_err(io::Error::other)?);
        }
        let took = t0.elapsed();
        self.check(&fires, &expected, checks);
        Ok(took)
    }

    fn phase(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> io::Result<Phase> {
        let mut ops = Ops::default();
        let mut clock = PhaseClock::start();
        let (spec, _) = continuous();
        while clock.measured().as_secs_f64() < seconds {
            if self.events.queue.is_empty() {
                clock.off(|| self.events.refill());
            }
            let (event, expected) = self.events.next();
            tracer.next_op();
            let span = tracer.begin("stream.push");
            let t0 = Instant::now();
            let fires = self.session.push(event).map_err(io::Error::other)?;
            let latency = t0.elapsed();
            tracer.end(span);
            if fires.is_empty() && expected.is_empty() {
                ops.succeeded_untimed();
                continue;
            }
            ops.succeeded(latency);
            clock.off(|| {
                if tracer.is_on() {
                    record_fires(tracer, span, &fires, &spec, self.fired);
                }
                self.check(&fires, &expected, checks);
            });
        }
        Ok(Phase {
            ops,
            elapsed: clock.measured(),
        })
    }
}

/// Puts the program's account of the fires on the push span, and
/// replays the materialisation and the continuous query of every
/// `MATERIALISE_EVERY`-th fired snapshot in spans of their own.
fn record_fires(
    tracer: &mut Tracer,
    span: SpanId,
    fires: &[WindowFire],
    spec: &QuerySpec,
    seen: usize,
) {
    let sum = |f: &dyn Fn(&WindowFire) -> f64| fires.iter().map(f).sum::<f64>();
    tracer.attr(span, "fires", fires.len() as f64);
    tracer.attr(
        span,
        "resolve_ms",
        sum(&|f| f.stats.resolve_micros as f64 / 1e3),
    );
    tracer.attr(
        span,
        "ground_ms",
        sum(&|f| stats::ms(f.snapshot.stats.grounding_time)),
    );
    tracer.attr(
        span,
        "solve_ms",
        sum(&|f| stats::ms(f.snapshot.stats.solve_time)),
    );
    tracer.attr(span, "atoms", sum(&|f| f.snapshot.stats.atoms as f64));
    tracer.attr(span, "clauses", sum(&|f| f.snapshot.stats.clauses as f64));
    tracer.attr(
        span,
        "components_solved",
        sum(&|f| f.stats.components_solved as f64),
    );
    for (i, fire) in fires.iter().enumerate() {
        if (seen + i).is_multiple_of(MATERIALISE_EVERY) {
            let fresh = Snapshot::from_resolution(
                fire.snapshot.resolution().clone(),
                fire.snapshot.epoch(),
            );
            common::materialise(tracer, &fresh);
            tracer.time("core.query", || spec.compile(&fresh).count());
        }
    }
}

fn stream_layers(tracer: &Tracer, layers: &mut Layers) {
    let pushes: Vec<_> = tracer.named("stream.push").collect();
    let quiet: Vec<f64> = pushes
        .iter()
        .filter(|s| s.attr("fires").is_none())
        .map(|s| s.ms() * 1e3)
        .collect();
    let firing: Vec<_> = pushes
        .iter()
        .filter_map(|s| Some((s, s.attr("fires")?)))
        .collect();
    let per_fire = |key: &str| -> Vec<f64> {
        firing
            .iter()
            .map(|(s, n)| s.attr(key).unwrap_or(0.0) / n)
            .collect()
    };
    let resolve = per_fire("resolve_ms");
    let (ground, solve) = (per_fire("ground_ms"), per_fire("solve_ms"));
    let interpret: Vec<f64> = (0..resolve.len())
        .map(|i| resolve[i] - ground[i] - solve[i])
        .collect();
    let other: Vec<f64> = firing
        .iter()
        .map(|(s, _)| s.ms() - s.attr("resolve_ms").unwrap_or(0.0))
        .collect();
    layers.insert("stream.push_us", common::med(&quiet));
    layers.insert("stream.fire_resolve_ms", common::med(&resolve));
    layers.insert("stream.fire_other_ms", common::med(&other));
    layers.insert("ground.ground_ms", common::med(&ground));
    layers.insert("ground.atoms", common::med(&per_fire("atoms")));
    layers.insert("ground.clauses", common::med(&per_fire("clauses")));
    layers.insert("mln.solve_ms", common::med(&solve));
    layers.insert(
        "mln.components_solved",
        common::med(&per_fire("components_solved")),
    );
    layers.insert("core.interpret_ms", common::med(&interpret));
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

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> io::Result<Outcome> {
    // Set-up pushes the stream until the FILL-th window fires.
    let mut events = Events::new(seed);
    let (mut prefix, mut fires) = (0, 0);
    while fires < FILL {
        fires += events.next().1.len();
        prefix += 1;
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut stream = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let session = open_session();
        let opened = t0.elapsed();
        let mut s = Stream::new(session, seed);
        setups.push(opened + s.set_up(prefix, checks)?);
        stream = Some(s);
    }
    let mut stream = stream.expect("at least one set-up");
    let mut outcome = Outcome {
        setups,
        ..Outcome::default()
    };
    outcome.phase = stream.phase(seconds, &mut Tracer::new(false), checks)?;
    if tracer.is_on() {
        outcome.traced = Some(stream.phase(seconds, tracer, checks)?);
        stream_layers(tracer, &mut outcome.layers);
    }
    println!(
        "stream_windows: {prefix} pushes of set-up, {} windows fired, {} live facts at the end",
        stream.fired,
        stream.session.live_facts()
    );
    Ok(outcome)
}
