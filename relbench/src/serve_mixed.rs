//! `serve_mixed`: a service orchestrator querying the warm daemon.
//!
//! The released `archrel serve` binary runs as its own process with two
//! workers and serves one Unix-socket connection. One client thread keeps a
//! closed loop of [`IN_FLIGHT`] pipelined requests drawn from the seeded
//! [`MixGenerator`]: mostly hot `predict`s on the small models, some fresh
//! ones, fewer fresh ones on the 1024-state chain and the shared DAG, a few
//! short `sweep`s, and a numeric-only `load` hot-swap every
//! [`SWAP_EVERY`](crate::mix::SWAP_EVERY) operations. A swap waits for the
//! loop to drain and blocks the loop until it is answered, so every answer
//! is attributable to exactly one model version.
//!
//! The traced run replays the same request lines in process through
//! `protocol::decode_line`, `Catalog::get`, a fresh request-scoped evaluator,
//! `failure_probability` and `protocol::ok_line`, and charges the rest of
//! each request's client latency to the transport (socket, admission queue,
//! worker hand-off).

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use archrel_bench::scenarios::{parameterized_flow_assembly, shared_dag_assembly};
use archrel_core::paper_closed::{pfail_search_local, pfail_search_remote};
use archrel_core::{
    AssemblyProgram, BatchEvaluator, EvalOptions, Evaluator, PlanCache, ProgramMode, Query,
};
use archrel_dsl::{parse_assembly, print_assembly};
use archrel_expr::Bindings;
use archrel_model::paper::PaperParams;
use archrel_model::Assembly;
use archrel_serve::json::{self, DecodeLimits, JsonValue};
use archrel_serve::protocol::{self, DecodeCaps};
use archrel_serve::{Catalog, Client};

use crate::design_batch::{augmented, median_time};
use crate::mix::{
    bindings_json, catalog_specs, HotTracker, Kind, MixGenerator, ModelSpec, Op, SWEEP_STEPS,
};
use crate::report::{Outcome, Reconciliation};
use crate::stats::{mean, median, ratio, summarize};
use crate::{err, Config};

/// Requests in flight on the one connection.
pub const IN_FLIGHT: usize = 4;
const WORKERS: usize = 2;
const SETUP_REPEATS: usize = 7;
/// A traced run samples the daemon's `stats` every this many requests.
const STATS_EVERY: usize = 64;
/// How long a daemon may take to exit after `shutdown`.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// The scan step of the search service, whose software failure law the
/// numeric swap varies (`PaperParams::phi_search`).
const SCAN_LINE: &str = "call cpu1(n: log2(list)) via loc1 internal phi 1e-7;";
const PHI_SEARCH: [f64; 2] = [1e-7, 2e-7];
const PAYMENT_LINE: &str = "blackbox payment_gw(amount) { pfail: 1.2e-3; }";
const PAYMENT_PFAIL: [&str; 2] = ["1.2e-3", "1.3e-3"];

/// Replaces the one occurrence of `needle` in `source`.
fn variant(source: &str, needle: &str, with: &str) -> Result<String, String> {
    if source.matches(needle).count() != 1 {
        return Err(format!("`{needle}` does not occur exactly once"));
    }
    Ok(source.replace(needle, with))
}

/// DSL sources of every catalog entry, in both numeric variants.
fn sources(specs: &[ModelSpec]) -> Result<Vec<[String; 2]>, String> {
    let paper = |base: &str| -> Result<[String; 2], String> {
        let alt = SCAN_LINE.replace("1e-7", &format!("{:e}", PHI_SEARCH[1]));
        Ok([base.to_string(), variant(base, SCAN_LINE, &alt)?])
    };
    let webshop = include_str!("../../examples/assemblies/webshop.arch");
    let alt = PAYMENT_LINE.replace(PAYMENT_PFAIL[0], PAYMENT_PFAIL[1]);
    let (chain, _) = parameterized_flow_assembly(1024, 8, 1e-5).map_err(err)?;
    let chain = print_assembly(&chain).map_err(err)?;
    let dag = print_assembly(&shared_dag_assembly(6, 3, 2).map_err(err)?).map_err(err)?;
    let by_name = |name: &str| -> Result<[String; 2], String> {
        match name {
            "paper_local" => paper(include_str!("../models/paper_local.arch")),
            "paper_remote" => paper(include_str!("../models/paper_remote.arch")),
            "webshop" => Ok([webshop.to_string(), variant(webshop, PAYMENT_LINE, &alt)?]),
            "chain" => Ok([chain.clone(), chain.clone()]),
            "dag" => Ok([dag.clone(), dag.clone()]),
            other => Err(format!("no source for `{other}`")),
        }
    };
    specs.iter().map(|s| by_name(s.name)).collect()
}

/// The paper's closed form (eqs. 15–22) for `model` at numeric `variant`.
fn closed_form(name: &str, variant: usize, values: &[f64]) -> Option<f64> {
    let params = PaperParams {
        phi_search: PHI_SEARCH[variant],
        ..PaperParams::default()
    };
    let closed = match name {
        "paper_local" => pfail_search_local,
        "paper_remote" => pfail_search_remote,
        _ => return None,
    };
    Some(closed(&params, values[0], values[1], values[2]))
}

fn bindings(spec: &ModelSpec, values: &[f64]) -> Bindings {
    let mut env = Bindings::new();
    for ((name, _, _), v) in spec.params.iter().zip(values) {
        env.insert(name, *v);
    }
    env
}

/// The values a `sweep` of `param` sends and the daemon evaluates at.
fn sweep_values(spec: &ModelSpec, param: usize) -> Vec<f64> {
    let (_, from, to) = spec.params[param];
    (0..SWEEP_STEPS)
        .map(|i| {
            let t = i as f64 / (SWEEP_STEPS - 1) as f64;
            from + t * (to - from)
        })
        .collect()
}

/// The request line of `op`, tagged `id`.
fn request_line(specs: &[ModelSpec], sources: &[[String; 2]], id: &str, op: &Op) -> String {
    let spec = &specs[op.model()];
    match op {
        Op::Predict { values, .. } => format!(
            "{{\"id\":\"{id}\",\"op\":\"predict\",\"assembly\":\"{}\",\"service\":\"{}\",\"bindings\":{}}}",
            spec.name,
            spec.service,
            bindings_json(spec, values, None)
        ),
        Op::Sweep { param, values, .. } => {
            let (name, from, to) = &spec.params[*param];
            format!(
                "{{\"id\":\"{id}\",\"op\":\"sweep\",\"assembly\":\"{}\",\"service\":\"{}\",\"param\":\"{name}\",\"from\":{from:?},\"to\":{to:?},\"steps\":{SWEEP_STEPS},\"bindings\":{}}}",
                spec.name,
                spec.service,
                bindings_json(spec, values, Some(*param))
            )
        }
        Op::Swap { model, variant } => format!(
            "{{\"id\":\"{id}\",\"op\":\"load\",\"name\":\"{}\",\"source\":{}}}",
            spec.name,
            json::write(&JsonValue::String(sources[*model][*variant].clone()))
        ),
    }
}

/// Mid-range bindings of a spec: the untimed warm-up query.
fn warm_values(spec: &ModelSpec) -> Vec<f64> {
    spec.params
        .iter()
        .map(|(_, lo, hi)| 0.5 * (lo + hi))
        .collect()
}

/// A running daemon and the client connection to it.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    client: Client,
}

impl Daemon {
    /// Spawns `archrel serve`, preloads the catalog from `files` and waits
    /// until it listens.
    fn spawn(archrel: &Path, sock: &Path, files: &[(String, PathBuf)]) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(sock);
        let mut cmd = Command::new(archrel);
        cmd.arg("serve")
            .arg("--unix")
            .arg(sock)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (name, file) in files {
            cmd.arg("--catalog")
                .arg(format!("{name}={}", file.display()));
        }
        for (key, _) in std::env::vars() {
            if key.starts_with("ARCHREL_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", archrel.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).map_err(err);
            if n.as_ref().map_or(true, |&n| n == 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if line.starts_with("listening on unix://") {
                break;
            }
        }
        let client = match Client::connect_unix(sock) {
            Ok(client) => client,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot connect: {e}"));
            }
        };
        Ok(Daemon {
            child,
            stdout,
            client,
        })
    }

    fn roundtrip(&mut self, line: &str) -> Result<JsonValue, String> {
        self.client.roundtrip(line).map_err(err)
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.roundtrip(r#"{"id":"bye","op":"shutdown"}"#);
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).map_or(0, |n| n) > 0 {
            rest.clear();
        }
        let deadline = Instant::now() + EXIT_GRACE;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                reply?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the daemon answered.
#[derive(Debug, Clone, PartialEq)]
enum Reply {
    /// `predict`: the failure probability's bits.
    Pfail(u64),
    /// `sweep`: `(value, pfail)` bits per grid point.
    Points(Vec<(u64, u64)>),
    /// `load` succeeded.
    Loaded,
    /// Error envelope or malformed reply.
    Error(String),
}

fn reply_of(value: &JsonValue) -> Reply {
    let Some(obj) = value.as_object() else {
        return Reply::Error("reply is not an object".into());
    };
    if !matches!(obj.get("ok"), Some(JsonValue::Bool(true))) {
        return Reply::Error(json::write(value));
    }
    let Some(result) = obj.get("result").and_then(JsonValue::as_object) else {
        return Reply::Error("reply has no result".into());
    };
    if let Some(p) = result.get("pfail").and_then(JsonValue::as_f64) {
        return Reply::Pfail(p.to_bits());
    }
    if let Some(points) = result.get("points").and_then(JsonValue::as_array) {
        let mut out = Vec::with_capacity(points.len());
        for point in points {
            let field = |k: &str| point.as_object()?.get(k)?.as_f64();
            match (field("value"), field("pfail")) {
                (Some(v), Some(p)) => out.push((v.to_bits(), p.to_bits())),
                _ => return Reply::Error("malformed sweep point".into()),
            }
        }
        return Reply::Points(out);
    }
    if result.contains_key("version") {
        return Reply::Loaded;
    }
    Reply::Error(format!("unexpected result {}", json::write(value)))
}

/// One completed operation.
#[derive(Debug, Clone)]
struct Record {
    op: Op,
    line: String,
    hot: bool,
    latency: f64,
    reply: Reply,
}

/// One pass of the closed loop.
#[derive(Debug, Default)]
struct Pass {
    records: Vec<Record>,
    wall: f64,
    queue_samples: Vec<f64>,
    stats: BTreeMap<String, f64>,
}

impl Pass {
    fn predicts(&self) -> impl Iterator<Item = &Record> {
        self.records
            .iter()
            .filter(|r| matches!(r.op, Op::Predict { .. }))
    }

    fn latencies(&self, keep: impl Fn(&Record) -> bool) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.latency)
            .collect()
    }

    /// A counter of the daemon's final `stats` reply; an absent key is an
    /// error, so that a renamed or dropped counter never reads as 0.
    fn stat(&self, key: &str) -> Result<f64, String> {
        self.stats
            .get(key)
            .copied()
            .ok_or_else(|| format!("daemon stats lack `{key}`"))
    }
}

enum Pending {
    Op(usize, Instant),
    Stats,
}

/// Everything a daemon session needs, generated once per run.
struct Session {
    specs: Vec<ModelSpec>,
    sources: Vec<[String; 2]>,
    files: Vec<(String, PathBuf)>,
}

impl Session {
    fn new(config: &Config) -> Result<Session, String> {
        let specs = catalog_specs();
        let sources = sources(&specs)?;
        let mut files = Vec::new();
        for (spec, source) in specs.iter().zip(&sources) {
            let path = config.workdir.join(format!("{}.arch", spec.name));
            std::fs::write(&path, &source[0]).map_err(err)?;
            files.push((spec.name.to_string(), path));
        }
        Ok(Session {
            specs,
            sources,
            files,
        })
    }

    /// Spawns a daemon and sends one untimed warm-up `predict` per entry.
    fn start(&self, config: &Config, tag: &str) -> Result<Daemon, String> {
        let archrel = config
            .archrel
            .as_ref()
            .ok_or("serve_mixed needs --archrel PATH")?;
        let sock = config.workdir.join(format!("{tag}.sock"));
        let mut daemon = Daemon::spawn(archrel, &sock, &self.files)?;
        for (i, spec) in self.specs.iter().enumerate() {
            let op = Op::Predict {
                kind: Kind::FreshSmall,
                model: i,
                values: warm_values(spec),
            };
            let line = request_line(&self.specs, &self.sources, "warm", &op);
            if let Reply::Error(e) = reply_of(&daemon.roundtrip(&line)?) {
                return Err(format!("warm-up of {} failed: {e}", spec.name));
            }
        }
        Ok(daemon)
    }

    /// A hot/fresh tracker that has seen the warm-up queries.
    fn tracker(&self) -> HotTracker {
        let mut tracker = HotTracker::new(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            tracker.classify(i, &warm_values(spec));
        }
        tracker
    }

    /// Runs the closed loop for `window`, then reads the daemon's counters.
    fn drive(
        &self,
        daemon: &mut Daemon,
        seed: u64,
        window: Duration,
        traced: bool,
    ) -> Result<Pass, String> {
        let mut generator = MixGenerator::new(self.specs.clone(), seed);
        let mut tracker = self.tracker();
        let mut pass = Pass::default();
        let mut slots: Vec<Option<Record>> = Vec::new();
        let mut pending: HashMap<String, Pending> = HashMap::new();
        let mut held: Option<Op> = None;
        let mut barrier = false;
        let mut stats_sent = 0usize;
        let started = Instant::now();
        loop {
            let open = started.elapsed() < window;
            while open && !barrier && pending.len() < IN_FLIGHT {
                let op = held.take().unwrap_or_else(|| generator.next_op());
                let mut hot = false;
                match &op {
                    Op::Swap { model, .. } => {
                        if !pending.is_empty() {
                            held = Some(op);
                            break;
                        }
                        tracker.swap(*model);
                        barrier = true;
                    }
                    Op::Predict { model, values, .. } => hot = tracker.classify(*model, values),
                    Op::Sweep { .. } => {}
                }
                let index = slots.len();
                let id = index.to_string();
                let line = request_line(&self.specs, &self.sources, &id, &op);
                daemon.client.send(&line).map_err(err)?;
                pending.insert(id, Pending::Op(index, Instant::now()));
                slots.push(Some(Record {
                    op,
                    line,
                    hot,
                    latency: 0.0,
                    reply: Reply::Loaded,
                }));
                if traced && !barrier && slots.len().is_multiple_of(STATS_EVERY) {
                    stats_sent += 1;
                    let id = format!("s{stats_sent}");
                    daemon
                        .client
                        .send(&format!("{{\"id\":\"{id}\",\"op\":\"stats\"}}"))
                        .map_err(err)?;
                    pending.insert(id, Pending::Stats);
                }
            }
            if pending.is_empty() {
                if open {
                    continue;
                }
                break;
            }
            let line = daemon.client.recv_line().map_err(err)?;
            let received = Instant::now();
            let value = json::parse(&line, &DecodeLimits::default()).map_err(err)?;
            let id = value
                .as_object()
                .and_then(|o| o.get("id"))
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("reply without id: {line}"))?
                .to_string();
            match pending.remove(&id) {
                Some(Pending::Op(index, sent)) => {
                    let record = slots[index].as_mut().expect("slot filled at send");
                    record.latency = (received - sent).as_secs_f64();
                    record.reply = reply_of(&value);
                    if matches!(record.op, Op::Swap { .. }) {
                        barrier = false;
                    }
                }
                Some(Pending::Stats) => {
                    let depth = value
                        .as_object()
                        .and_then(|o| o.get("result"))
                        .and_then(JsonValue::as_object)
                        .and_then(|r| r.get("queue_depth"))
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("stats reply without queue_depth: {line}"))?;
                    pass.queue_samples.push(depth);
                }
                None => return Err(format!("reply to unknown id `{id}`")),
            }
        }
        pass.wall = started.elapsed().as_secs_f64();
        pass.records = slots.into_iter().flatten().collect();
        let stats = daemon.roundtrip(r#"{"id":"final","op":"stats"}"#)?;
        if let Some(result) = stats
            .as_object()
            .and_then(|o| o.get("result"))
            .and_then(JsonValue::as_object)
        {
            for (k, v) in result {
                if let Some(x) = v.as_f64() {
                    pass.stats.insert(k.clone(), x);
                }
            }
        }
        Ok(pass)
    }

    /// Parsed assemblies of every entry in both variants.
    fn assemblies(&self) -> Result<Vec<[Assembly; 2]>, String> {
        self.sources
            .iter()
            .map(|[a, b]| {
                Ok([
                    parse_assembly(a).map_err(err)?,
                    parse_assembly(b).map_err(err)?,
                ])
            })
            .collect()
    }

    /// The paper models' predictions against the closed forms of §4,
    /// in process, before anything is timed.
    fn check_paper(&self, models: &[[Assembly; 2]], outcome: &mut Outcome) -> Result<(), String> {
        let generator = MixGenerator::new(self.specs.clone(), 0);
        for (i, spec) in self.specs.iter().enumerate() {
            for (variant, assembly) in models[i].iter().enumerate() {
                let evaluator = Evaluator::new(assembly);
                let mut points = generator.hot_set(i).to_vec();
                points.push(warm_values(spec));
                for values in points {
                    let Some(want) = closed_form(spec.name, variant, &values) else {
                        break;
                    };
                    let got = evaluator
                        .failure_probability(&spec.service.into(), &bindings(spec, &values))
                        .map_err(err)?
                        .value();
                    outcome.check((got - want).abs() <= 1e-12 * want.abs());
                }
            }
        }
        Ok(())
    }

    /// Every answer of `pass` against an in-process program-off evaluation
    /// of the same bindings on the model version the request saw.
    fn check(
        &self,
        models: &[[Assembly; 2]],
        pass: &Pass,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        let options = EvalOptions {
            program: ProgramMode::Off,
            ..EvalOptions::default()
        };
        let evaluators: Vec<[Evaluator<'_>; 2]> = models
            .iter()
            .map(|[a, b]| {
                [
                    Evaluator::with_options(a, options),
                    Evaluator::with_options(b, options),
                ]
            })
            .collect();
        let mut version = vec![0usize; self.specs.len()];
        for record in &pass.records {
            let model = record.op.model();
            let spec = &self.specs[model];
            let evaluator = &evaluators[model][version[model]];
            let reference = |values: &[f64]| -> Result<u64, String> {
                Ok(evaluator
                    .failure_probability(&spec.service.into(), &bindings(spec, values))
                    .map_err(err)?
                    .value()
                    .to_bits())
            };
            let ok = match (&record.op, &record.reply) {
                (_, Reply::Error(e)) => {
                    eprintln!(
                        "relbench: request {} failed: {e}",
                        record.line.chars().take(120).collect::<String>()
                    );
                    false
                }
                (Op::Predict { values, .. }, Reply::Pfail(bits)) => reference(values)? == *bits,
                (Op::Sweep { param, values, .. }, Reply::Points(points)) => {
                    let grid = sweep_values(spec, *param);
                    let mut ok = points.len() == grid.len();
                    for (x, (value, bits)) in grid.iter().zip(points) {
                        let mut at = values.clone();
                        at[*param] = *x;
                        ok &= x.to_bits() == *value && reference(&at)? == *bits;
                    }
                    ok
                }
                (Op::Swap { variant, .. }, Reply::Loaded) => {
                    version[model] = *variant;
                    true
                }
                _ => false,
            };
            outcome.check(ok);
        }
        Ok(())
    }
}

/// In-process replay of a traced pass: per-request layer times.
#[derive(Debug, Default)]
struct Replay {
    decode: Vec<f64>,
    eval_hot: Vec<f64>,
    eval_fresh: Vec<f64>,
    encode: Vec<f64>,
    transport: Vec<f64>,
    latency: Vec<f64>,
    parse: Vec<f64>,
    load: Vec<f64>,
}

fn replay(session: &Session, pass: &Pass, outcome: &mut Outcome) -> Result<Replay, String> {
    let options = EvalOptions::default();
    let plans = Arc::new(PlanCache::new());
    let catalog = Catalog::new(Arc::clone(&plans));
    for (spec, source) in session.specs.iter().zip(&session.sources) {
        catalog.load(spec.name, &source[0]).map_err(err)?;
    }
    let caps = DecodeCaps::default();
    let evaluate = |name: &str, service: &str, env: &Bindings| -> Result<f64, String> {
        let entry = catalog.get(name).ok_or("entry vanished")?;
        let evaluator = Evaluator::with_plan_cache(&entry.assembly, options, Arc::clone(&plans))
            .with_value_cache(Arc::clone(&entry.values));
        Ok(evaluator
            .failure_probability(&service.into(), env)
            .map_err(err)?
            .value())
    };
    for spec in &session.specs {
        evaluate(spec.name, spec.service, &bindings(spec, &warm_values(spec)))?;
    }
    let mut out = Replay::default();
    for record in &pass.records {
        let spec = &session.specs[record.op.model()];
        match &record.op {
            Op::Predict { .. } => {
                let started = Instant::now();
                let envelope =
                    protocol::decode_line(&record.line, &caps).map_err(|(_, e)| e.message)?;
                let decoded = started.elapsed().as_secs_f64();
                let protocol::Request::Predict {
                    assembly,
                    service,
                    bindings,
                } = envelope.request
                else {
                    return Err("replayed line is not a predict".into());
                };
                let started = Instant::now();
                let p = evaluate(&assembly, &service, &bindings)?;
                let evaluated = started.elapsed().as_secs_f64();
                let started = Instant::now();
                let result = JsonValue::Object(
                    [
                        ("service".to_string(), JsonValue::String(service.clone())),
                        ("pfail".to_string(), JsonValue::Number(p)),
                        ("reliability".to_string(), JsonValue::Number(1.0 - p)),
                    ]
                    .into_iter()
                    .collect(),
                );
                std::hint::black_box(protocol::ok_line(&envelope.id, result));
                let encoded = started.elapsed().as_secs_f64();
                outcome.check(record.reply == Reply::Pfail(p.to_bits()));
                out.decode.push(decoded);
                out.encode.push(encoded);
                if record.hot {
                    out.eval_hot.push(evaluated);
                } else {
                    out.eval_fresh.push(evaluated);
                }
                out.latency.push(record.latency);
                out.transport
                    .push(record.latency - decoded - evaluated - encoded);
            }
            Op::Sweep { param, values, .. } => {
                let entry = catalog.get(spec.name).ok_or("entry vanished")?;
                let evaluator =
                    Evaluator::with_plan_cache(&entry.assembly, options, Arc::clone(&plans))
                        .with_value_cache(Arc::clone(&entry.values));
                let service = spec.service.into();
                evaluator.declare_varied(&service, std::slice::from_ref(&spec.params[*param].0));
                let queries: Vec<Query> = sweep_values(spec, *param)
                    .into_iter()
                    .map(|x| {
                        let mut at = values.clone();
                        at[*param] = x;
                        Query::new(spec.service, bindings(spec, &at))
                    })
                    .collect();
                BatchEvaluator::from_evaluator(evaluator)
                    .with_workers(WORKERS)
                    .evaluate_all(&queries);
            }
            Op::Swap { model, variant } => {
                let source = &session.sources[*model][*variant];
                let started = Instant::now();
                std::hint::black_box(parse_assembly(source).map_err(err)?);
                out.parse.push(started.elapsed().as_secs_f64());
                let started = Instant::now();
                catalog.load(spec.name, source).map_err(err)?;
                out.load.push(started.elapsed().as_secs_f64());
            }
        }
    }
    Ok(out)
}

fn layers(
    session: &Session,
    models: &[[Assembly; 2]],
    untraced: &Pass,
    traced: &Pass,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let r = replay(session, traced, outcome)?;
    outcome.layer("serve.protocol.decode_us", 1e6 * median(&r.decode));
    outcome.layer("serve.protocol.encode_us", 1e6 * median(&r.encode));
    outcome.layer("serve.transport_us", 1e6 * median(&r.transport));
    outcome.layer("serve.queue_depth", mean(&traced.queue_samples));
    outcome.layer("serve.catalog.load_ms", 1e3 * median(&r.load));
    outcome.layer("dsl.parse_ms", 1e3 * median(&r.parse));
    outcome.layer("core.eval.hot_us", 1e6 * median(&r.eval_hot));
    outcome.layer("core.eval.fresh_us", 1e6 * median(&r.eval_fresh));
    let s = |k: &str| traced.stat(k);
    outcome.layer(
        "core.value_cache.hit_ratio",
        ratio(
            s("value_cache_hits")?,
            s("value_cache_hits")? + s("value_cache_misses")?,
        ),
    );
    outcome.layer(
        "core.plan_cache.hit_ratio",
        ratio(s("plan_hits")?, s("plan_hits")? + s("plan_misses")?),
    );
    outcome.layer(
        "core.plan_cache.rank1_share",
        ratio(s("rank1_solves")?, s("rank1_solves")? + s("full_solves")?),
    );
    // The daemon's `stats` reports memo hits but not memo misses, so no
    // memo hit ratio can be formed here; `core.program.memo_hit_ratio`
    // stays at the bypassed-layer 0 and is measured in `design_batch`.
    outcome.layer("core.program.pin_hits", s("pin_hits")?);
    let index = |name: &str| {
        session
            .specs
            .iter()
            .position(|s| s.name == name)
            .expect("catalog entry")
    };
    let dag = &models[index("dag")][0];
    outcome.layer(
        "core.program.compile_us",
        1e6 * median_time(|| AssemblyProgram::compile(dag, &"app".into()).map_err(err))?,
    );
    let chain = &models[index("chain")][0];
    outcome.layer(
        "markov.plan.compile_us",
        1e6 * median_time(|| augmented(chain, 1e-5))?,
    );

    let reconciliation = Reconciliation {
        label: "predict (mean request)".into(),
        total: 1e6 * mean(&r.latency),
        layers: vec![
            ("serve.protocol.decode", 1e6 * mean(&r.decode)),
            (
                "core.eval",
                1e6 * (r.eval_hot.iter().sum::<f64>() + r.eval_fresh.iter().sum::<f64>())
                    / r.latency.len().max(1) as f64,
            ),
            ("serve.protocol.encode", 1e6 * mean(&r.encode)),
        ],
        unit: "us",
    };
    outcome.layer("reconcile.residual_share", reconciliation.residual_share());
    outcome.reconciliation = Some(reconciliation);
    let rps = |p: &Pass| p.records.len() as f64 / p.wall;
    outcome.layer("trace.overhead_share", rps(untraced) / rps(traced) - 1.0);
    Ok(())
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let session = Session::new(config)?;
    let models = session.assemblies()?;
    session.check_paper(&models, &mut outcome)?;

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut daemon = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            Daemon::shutdown(previous)?;
        }
        let started = Instant::now();
        daemon = Some(session.start(config, &format!("d{k}"))?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut daemon = daemon.expect("at least one set-up");
    outcome.e2e.setup_s = median(&setups);

    let window = if config.trace {
        config.window / 2
    } else {
        config.window
    };
    let pass = session.drive(&mut daemon, config.seed, window, false)?;
    daemon.shutdown()?;
    session.check(&models, &pass, &mut outcome)?;
    if config.trace {
        let mut daemon = session.start(config, "traced")?;
        let traced = session.drive(&mut daemon, config.seed, window, true)?;
        daemon.shutdown()?;
        session.check(&models, &traced, &mut outcome)?;
        layers(&session, &models, &pass, &traced, &mut outcome)?;
    }

    let predicts: Vec<f64> = pass.predicts().map(|r| r.latency).collect();
    let all = summarize(&predicts).ok_or("no predict completed")?;
    let hot = pass.latencies(|r| matches!(r.op, Op::Predict { .. }) && r.hot);
    let fresh = pass.latencies(|r| matches!(r.op, Op::Predict { .. }) && !r.hot);
    let swaps = pass.latencies(|r| r.op.kind() == Kind::Swap);
    let rps = pass.records.len() as f64 / pass.wall;
    outcome.e2e.throughput_per_s = rps;
    outcome.e2e.latency_p50_ms = 1e3 * all.p50;
    outcome.named("requests", pass.records.len() as f64, "count");
    outcome.named("serve_rps", rps, "1/s");
    outcome.named("predict_hot_p50_us", 1e6 * median(&hot), "us");
    outcome.named("predict_fresh_p50_us", 1e6 * median(&fresh), "us");
    if let Some((level, value)) = all.tail {
        outcome.named(&format!("predict_p{level}_us"), 1e6 * value, "us");
    }
    outcome.named("predict_samples", all.count as f64, "count");
    outcome.named("swap_p50_ms", 1e3 * median(&swaps), "ms");
    outcome.named("swaps", swaps.len() as f64, "count");
    // What the gated numbers are made of: each kind's share of the requests
    // and of the summed client latency.
    let total_latency: f64 = pass.records.iter().map(|r| r.latency).sum();
    for kind in Kind::ALL {
        let latencies = pass.latencies(|r| r.op.kind() == kind);
        let label = kind.label();
        outcome.named(
            &format!("mix.{label}.request_share"),
            ratio(latencies.len() as f64, pass.records.len() as f64),
            "ratio",
        );
        outcome.named(
            &format!("mix.{label}.latency_share"),
            ratio(latencies.iter().sum(), total_latency),
            "ratio",
        );
    }
    Ok(outcome)
}
