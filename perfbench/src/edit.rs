//! `edit_visible`: single-fact edits against a durable server over TCP.
//! One op runs from sending the edit to the first poll response whose
//! epoch covers it.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tecore_core::{EditBatch, Engine, Snapshot};
use tecore_kg::{FactId, UtkGraph};
use tecore_logic::LogicProgram;
use tecore_server::{proto, Server, ServerConfig};
use tecore_temporal::Interval;
use tecore_wal::{Wal, WalConfig};

use crate::check::{self, Checks, FactKey, FactSet, Probe};
use crate::common::{self, Layers, Outcome, Phase, PhaseClock, WorkDir, SETUPS};
use crate::inputs::{self, Edit, EditPlan};
use crate::stats::{self, Ops};
use crate::trace::Tracer;
use crate::wire::Client;

/// Rounds of the in-process replay behind the per-layer metrics, at 32k
/// and at 2k facts.
const REPLAY_ROUNDS: usize = 12;
const SMALL_ROUNDS: usize = 48;
/// A poll loop that outlasts this names an edit that never became
/// visible.
const POLL_DEADLINE: Duration = Duration::from_secs(20);

/// The engine's input graph as the benchmark predicts it: facts by
/// engine id, with the epoch every applied edit advances.
struct Model {
    facts: Vec<(FactKey, bool)>,
    live: FactSet,
    epoch: u64,
}

impl Model {
    fn of(graph: &UtkGraph) -> Model {
        let mut model = Model {
            facts: Vec::with_capacity(graph.arena_len()),
            live: FactSet::default(),
            epoch: graph.epoch(),
        };
        for i in 0..graph.arena_len() {
            let id = FactId(i as u32);
            let fact = graph.arena_fact(id).expect("arena position");
            let key = FactKey::of(graph.dict(), fact);
            let alive = graph.is_alive(id);
            if alive {
                model.live.add(&key);
            }
            model.facts.push((key, alive));
        }
        model
    }

    /// An insert is applied as the next engine id.
    fn insert(&mut self, key: FactKey) {
        self.live.add(&key);
        self.facts.push((key, true));
        self.epoch += 1;
    }

    /// `REMOVE id` tombstones the fact with that engine id, if alive.
    fn remove(&mut self, id: u32) {
        if let Some((key, alive)) = self.facts.get_mut(id as usize) {
            if *alive {
                *alive = false;
                self.live.remove(key);
                self.epoch += 1;
            }
        }
    }
}

fn key_of(edit: &Edit) -> FactKey {
    let Edit::Insert {
        subject,
        predicate,
        object,
        start,
        end,
        confidence,
    } = edit
    else {
        unreachable!("only inserts carry a fact")
    };
    FactKey {
        subject: subject.clone(),
        predicate: (*predicate).to_string(),
        object: object.clone(),
        start: *start,
        end: *end,
        confidence: *confidence,
    }
}

/// The id an `F` row reports for the fact with `object`, if served.
fn row_id(response: &str, object: &str) -> Option<u32> {
    response.lines().skip(1).find_map(|line| {
        let mut t = line.split_whitespace();
        let (_, id, _, _, o) = (t.next()?, t.next()?, t.next()?, t.next()?, t.next()?);
        (o == object).then(|| id.parse().ok()).flatten()
    })
}

struct EditVisible<'a> {
    server: Server,
    client: Client,
    plan: EditPlan,
    model: Model,
    checks: &'a mut Checks,
    buf: String,
    /// The round's first new fact: its queried id and object.
    queried: Option<(u32, FactKey)>,
}

impl EditVisible<'_> {
    /// Sends polls back to back until one answers at `epoch` or later;
    /// returns how many answered earlier.
    fn poll_until(&mut self, poll: &str, epoch: u64) -> io::Result<u64> {
        let deadline = Instant::now() + POLL_DEADLINE;
        let mut early = 0;
        loop {
            let header = self.client.request(poll, &mut self.buf)?;
            if header.epoch.is_some_and(|e| e >= epoch) {
                return Ok(early);
            }
            early += 1;
            if Instant::now() > deadline {
                return Err(io::Error::other(format!("epoch {epoch} never served")));
            }
        }
    }

    /// Runs one edit; returns its latency, or `None` if it failed.
    fn op(
        &mut self,
        edit: &Edit,
        tracer: &mut Tracer,
        clock: &mut PhaseClock,
    ) -> io::Result<Option<Duration>> {
        tracer.next_op();
        let (line, poll, target) = match edit {
            Edit::Insert { .. } => {
                let key = key_of(edit);
                let poll = inputs::poll(&key.subject, &key.predicate);
                self.model.insert(key);
                (edit.wire(None), poll, None)
            }
            Edit::RemoveQueried => {
                let (id, key) = self
                    .queried
                    .take()
                    .expect("a round removes after its insert");
                self.model.remove(id);
                let poll = inputs::poll(&key.subject, &key.predicate);
                (edit.wire(Some(id)), poll, Some(key))
            }
        };
        let poll_line = poll.wire();
        let epoch = self.model.epoch;

        let span = tracer.begin(if target.is_none() {
            "edit.insert"
        } else {
            "edit.remove"
        });
        let t0 = Instant::now();
        let send = tracer.begin("server.edit");
        let ack = self.client.request(&line, &mut self.buf)?;
        tracer.end(send);
        let polls = tracer.begin("server.polls");
        let early = self.poll_until(&poll_line, epoch)?;
        tracer.end(polls);
        let latency = t0.elapsed();
        tracer.end(span);
        tracer.attr(span, "polls", early as f64);

        let buf = std::mem::take(&mut self.buf);
        let outcome = clock.off(|| {
            self.checks
                .expect(ack.ok, || format!("{line}: not acknowledged"));
            let snapshot = self.server.snapshot();
            self.checks
                .expect_eq(snapshot.epoch(), epoch, &format!("{line}: served epoch"));
            let rows = check::rows(snapshot.expanded());
            let served = buf.lines().count() - 1;
            self.checks
                .expect_eq(served, poll.expected(&rows), &poll_line);
            check::check_snapshot(self.checks, &snapshot, self.model.live, &line);
            match (edit, target) {
                (Edit::Insert { object, .. }, None) => {
                    let id = row_id(&buf, object);
                    if edit.is_newcomer() {
                        self.checks
                            .expect(id.is_some(), || format!("{line}: new fact not served"));
                    }
                    if edit.is_removal_target() {
                        self.queried = id.map(|id| (id, key_of(edit)));
                    }
                    Some(latency)
                }
                // The removal failed if the named fact is still served.
                (_, Some(key)) => row_id(&buf, &key.object).is_none().then_some(latency),
                _ => unreachable!("removals carry their target"),
            }
        });
        self.buf = buf;
        Ok(outcome)
    }

    /// Whole rounds until `seconds` of measured time have passed.
    fn phase(&mut self, seconds: f64, tracer: &mut Tracer) -> io::Result<Phase> {
        let mut ops = Ops::default();
        let mut clock = PhaseClock::start();
        while clock.measured().as_secs_f64() < seconds {
            for edit in self.plan.next_round() {
                match self.op(&edit, tracer, &mut clock)? {
                    Some(latency) => ops.succeeded(latency),
                    None => ops.failed(),
                }
            }
        }
        Ok(Phase {
            ops,
            elapsed: clock.measured(),
        })
    }

    /// Makes every acknowledged edit durable, cuts power, and checks the
    /// recovered graph against the model fact for fact.
    fn crash_and_recover(mut self, dir: &Path, program: LogicProgram) -> io::Result<()> {
        let flushed = self.client.request("FLUSH", &mut self.buf)?;
        self.checks
            .expect(flushed.ok, || format!("FLUSH: {}", self.buf.trim()));
        let last = self.server.snapshot();
        self.server.crash();
        let engine =
            Engine::open_durable_with(dir, program, inputs::config(), WalConfig::default())
                .map_err(io::Error::other)?;
        let graph = engine.graph();
        self.checks
            .expect_eq(graph.epoch(), self.model.epoch, "recovered epoch");
        self.checks
            .expect_eq(graph.arena_len(), self.model.facts.len(), "recovered arena");
        let mut lost = 0;
        for (i, (key, alive)) in self.model.facts.iter().enumerate() {
            let id = FactId(i as u32);
            let same = graph.is_alive(id) == *alive
                && (!alive
                    || graph
                        .fact(id)
                        .map(|f| FactKey::of(graph.dict(), f))
                        .as_ref()
                        == Some(key));
            lost += u64::from(!same);
        }
        self.checks.expect_eq(
            lost,
            0,
            "recovered facts that differ from the acknowledged edits",
        );
        self.checks.expect_eq(
            FactSet::of_graph(graph),
            FactSet::of_partition(&last),
            "recovered graph vs last served input graph",
        );
        Ok(())
    }
}

/// Writes a fresh log holding a checkpoint of `graph`.
fn prepare_log(dir: &Path, graph: &UtkGraph, program: &LogicProgram) -> io::Result<()> {
    let (wal, _) = Wal::open(dir, WalConfig::default()).map_err(io::Error::other)?;
    let mut engine = Engine::with_config(graph.clone(), program.clone(), inputs::config());
    engine.attach_wal(wal).map_err(io::Error::other)?;
    engine.flush_wal().map_err(io::Error::other)?;
    Ok(())
}

fn open(dir: &Path, program: &LogicProgram, tracer: &mut Tracer) -> io::Result<Engine> {
    let (program, config) = (program.clone(), inputs::config());
    tracer
        .time("wal.recover", || {
            Engine::open_durable_with(dir, program, config, WalConfig::default())
        })
        .map_err(io::Error::other)
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> io::Result<Outcome> {
    let graph = inputs::wikidata(inputs::LARGE, seed);
    let program = inputs::program();
    let work = WorkDir::new("edit_visible")?;
    let pristine = work.path().join("pristine");
    prepare_log(&pristine, &graph, &program)?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut served: Option<(Server, Client, std::path::PathBuf)> = None;
    for i in 0..SETUPS {
        if let Some((old, _, old_dir)) = served.take() {
            old.crash();
            std::fs::remove_dir_all(old_dir)?;
        }
        let dir = work.copy_of(&pristine, &format!("serve{i}"))?;
        let mut buf = String::new();
        let t0 = Instant::now();
        let engine = open(&dir, &program, tracer)?;
        let server = tracer.time("server.start", || {
            Server::start(engine, ServerConfig::default())
        })?;
        let mut client = Client::connect(server.local_addr())?;
        let header = tracer.time("server.first_query", || {
            client.request("COUNT p=spouse", &mut buf)
        })?;
        setups.push(t0.elapsed());
        checks.expect(header.ok, || format!("first query: {}", buf.trim()));
        served = Some((server, client, dir));
    }
    let (server, client, dir) = served.expect("at least one set-up");
    let model = Model::of(&graph);
    let initial = server.snapshot();
    check::check_snapshot(checks, &initial, model.live, "initial snapshot");
    checks.expect_eq(initial.epoch(), model.epoch, "initial epoch");
    drop(initial);

    let mut ev = EditVisible {
        server,
        client,
        plan: EditPlan::new(&graph, seed),
        model,
        checks,
        buf: String::new(),
        queried: None,
    };
    // The first edit after start re-solves every component; it is set-up
    // the user pays once, so one round runs before the clock.
    let mut off = Tracer::new(false);
    for edit in ev.plan.next_round() {
        ev.op(&edit, &mut off, &mut PhaseClock::start())?;
    }
    let mut outcome = Outcome {
        setups,
        ..Outcome::default()
    };
    outcome.phase = ev.phase(seconds, &mut Tracer::new(false))?;
    if tracer.is_on() {
        outcome.traced = Some(ev.phase(seconds, tracer)?);
    }
    ev.crash_and_recover(&dir, program.clone())?;

    if tracer.is_on() {
        let large = replay(
            &work,
            &pristine,
            &graph,
            &program,
            seed,
            REPLAY_ROUNDS,
            tracer,
        )?;
        let small_graph = inputs::wikidata(inputs::SMALL, seed);
        let small_log = work.path().join("small");
        prepare_log(&small_log, &small_graph, &program)?;
        let mut untraced = Tracer::new(false);
        let small = replay(
            &work,
            &small_log,
            &small_graph,
            &program,
            seed,
            SMALL_ROUNDS,
            &mut untraced,
        )?;
        let layers = &mut outcome.layers;
        edit_layers(tracer, layers);
        let (large, small) = (common::med(&large), common::med(&small));
        println!("edit cycle median: {large:.3} ms at 32k, {small:.3} ms at 2k");
        layers.insert("core.edit_scaling", large / small);
        let wire = outcome.phase.p50_ms() - large;
        layers.insert("server.wire_ms", wire);
    }
    Ok(outcome)
}

fn edit_layers(tracer: &Tracer, layers: &mut Layers) {
    common::resolve_layers(tracer, "core.resolve_incremental", layers);
    let us = |name: &str| -> f64 {
        let v: Vec<f64> = tracer.durations_ms(name).iter().map(|m| m * 1e3).collect();
        common::med(&v)
    };
    layers.insert(
        "core.apply_ms",
        common::med(&tracer.durations_ms("core.apply")),
    );
    layers.insert("core.query_us", us("core.query"));
    layers.insert(
        "kg.expand_ms",
        common::med(&tracer.durations_ms("kg.expand")),
    );
    layers.insert("kg.index_ms", common::med(&tracer.durations_ms("kg.index")));
    layers.insert(
        "wal.recover_ms",
        common::med(&tracer.durations_ms("wal.recover")),
    );
    layers.insert(
        "wal.bytes_per_edit",
        common::mean(&tracer.attr_values("core.apply", "wal_bytes")),
    );
    layers.insert(
        "server.polls_per_edit",
        common::mean(&tracer.attr_values("edit.insert", "polls")),
    );
    layers.insert("server.parse_us", us("server.parse"));
    layers.insert("server.answer_us", us("server.answer"));
}

/// Replays the edit plan in process on a durable engine opened from a
/// copy of `log`, one edit per cycle of apply → resolve → materialise →
/// poll query, and then replays the poll request through the server's
/// protocol functions. Returns the durations of the insert cycles after
/// the first round, in ms.
fn replay(
    work: &WorkDir,
    log: &Path,
    graph: &UtkGraph,
    program: &LogicProgram,
    seed: u64,
    rounds: usize,
    t: &mut Tracer,
) -> io::Result<Vec<f64>> {
    let name = log.file_name().and_then(|n| n.to_str()).unwrap_or("log");
    let dir = work.copy_of(log, &format!("replay-{name}"))?;
    let mut engine = open(&dir, program, t)?;
    engine.resolve_incremental().map_err(io::Error::other)?;
    let mut plan = EditPlan::new(graph, seed);
    let mut cycles = Vec::new();
    let mut queried = None;
    let mut out = String::new();
    for round in 0..=rounds {
        for edit in plan.next_round() {
            let t0 = Instant::now();
            let (snapshot, poll) = cycle(&mut engine, &edit, &mut queried, t)?;
            if matches!(edit, Edit::Insert { .. }) && round > 0 {
                cycles.push(stats::ms(t0.elapsed()));
            }
            let line = poll.wire();
            let request = t.time("server.parse", || proto::parse(&line));
            if let Ok(proto::Request::Query(kind, clauses)) = request {
                out.clear();
                let _ = t.time("server.answer", || {
                    proto::answer_query(&snapshot, kind, &clauses, &mut out)
                });
            }
        }
    }
    Ok(cycles)
}

/// One in-process edit cycle; returns the snapshot and the poll it ran.
fn cycle(
    engine: &mut Engine,
    edit: &Edit,
    queried: &mut Option<(u32, FactKey)>,
    tracer: &mut Tracer,
) -> io::Result<(Arc<Snapshot>, Probe)> {
    tracer.next_op();
    let (batch, poll) = match edit {
        Edit::Insert {
            subject,
            predicate,
            object,
            start,
            end,
            confidence,
        } => {
            let iv = Interval::new(*start, *end).map_err(io::Error::other)?;
            let batch = EditBatch::new().insert(
                subject.as_str(),
                *predicate,
                object.as_str(),
                iv,
                *confidence,
            );
            (batch, inputs::poll(subject, predicate))
        }
        Edit::RemoveQueried => {
            let (id, key) = queried.take().expect("a round removes after its insert");
            let poll = inputs::poll(&key.subject, &key.predicate);
            (EditBatch::new().remove(FactId(id)), poll)
        }
    };
    let bytes = engine.wal_stats().map_or(0, |w| w.bytes);
    let id = tracer.begin("core.apply");
    let report = engine.apply(&batch);
    tracer.end(id);
    let grown = engine
        .wal_stats()
        .map_or(0, |w| w.bytes)
        .saturating_sub(bytes);
    if report.changes() > 0 {
        tracer.attr(id, "wal_bytes", grown as f64);
    }
    let snapshot = common::traced_resolve(tracer, "core.resolve_incremental", || {
        engine.resolve_incremental()
    })?;
    common::materialise(tracer, &snapshot);
    let rows: Vec<(FactId, String)> = tracer.time("core.query", || {
        let mut q = snapshot.query();
        if let Some(s) = &poll.subject {
            q = q.subject(s);
        }
        if let Some(p) = &poll.predicate {
            q = q.predicate(p);
        }
        let dict = snapshot.expanded().dict();
        q.iter()
            .map(|(id, f)| (id, dict.resolve(f.object).to_string()))
            .collect()
    });
    if edit.is_removal_target() {
        let key = key_of(edit);
        *queried = rows
            .iter()
            .find(|(_, o)| *o == key.object)
            .map(|(id, _)| (id.0, key));
    }
    Ok((snapshot, poll))
}
