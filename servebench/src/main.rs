//! End-to-end benchmark of `qrel serve`, plus a traced per-layer replay.
//!
//! ```text
//! servebench --workload <hot_hits|plan_rw|unsafe_exact|unsafe_sampled>
//!            --seed <n> --seconds <s> --trace <0|1>
//!            --qrel <path to the qrel binary> --workdir <scratch dir>
//! ```
//!
//! Every run generates the bulk store from the seed, boots the release
//! `qrel serve` binary on it with deployment flags only (`--addr`,
//! `--store`), and drives it from one client thread in a closed loop
//! over loopback, one connection at a time. With `--trace 1` the same
//! requests are then replayed in process through each layer's public
//! function, once untraced and once traced, for the per-layer numbers.
//! The last stdout line is the JSON result; `servebench/run.sh` builds
//! both programs and runs this one.

mod client;
mod gen;
mod proc;
mod replay;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{Client, Reply};
use gen::{Kind, Op, Stream, BULK};
use proc::Server;
use replay::{Library, Span, Tracer};
use stats::{describe, median};

/// Server boots per `--trace 0` run that serve the timed window. Each
/// serves an equal share of it; `peak_rss_mb` is the median over them.
const BOOTS: usize = 5;
/// Boots before each window boot that only warm up and stop, so that
/// `setup_s`, the median over all boots, rests on 15 of them.
const SETUP_ONLY_BOOTS: usize = 2;
/// One-fact upserts to the stored dataset, sent after the timed reads of
/// each window boot of a workload that does not write, so
/// `write_latency_p50_ms` is measured on every workload. Their reads
/// never touch the stored dataset, so the probe changes none of their
/// answers or cache behaviour, and the peak RSS is read before it.
const PROBE_WRITES: usize = 41;
/// Without `--trace`, every warm-up reply, every `VERIFY_EVERY`-th
/// window solve (for `plan_rw`, every read of every `VERIFY_EVERY`-th
/// cycle) is answered again in process and compared byte for byte.
const VERIFY_EVERY: u64 = 8;
/// Store loads timed in process by a traced run.
const STORE_REPS: usize = 3;
/// The client pauses a seeded, uniformly random 0..THINK_US µs before
/// each timed request. Today's server polls `accept` every ~1 ms; a
/// closed loop without a pause phase-locks to that poll, so every
/// request of a run waits the same fraction of a period and the run's
/// median jumps by a whole period between runs. The pause spreads the
/// waits evenly. Latencies exclude it.
const THINK_US: u64 = 2000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    qrel: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let kind = Kind::parse(get("workload")?).ok_or_else(|| {
        "--workload must be hot_hits, plan_rw, unsafe_exact or unsafe_sampled".to_string()
    })?;
    Ok(Args {
        kind,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        qrel: PathBuf::from(get("qrel")?),
        workdir: PathBuf::from(get("workdir")?),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.workdir.join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where in a run an operation was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The warm-up pass after a boot (part of `setup_s`).
    Warm,
    /// The timed closed loop.
    Window,
    /// A write of the probe, after a boot's timed reads.
    Probe,
}

/// One operation as the client saw it.
struct Rec {
    phase: Phase,
    /// Which server process answered (0-based boot index).
    boot: usize,
    op: Op,
    ms: f64,
    reply: Result<Reply, String>,
}

/// Failed operations, with the first few reasons (each a repro: the
/// workload, seed and operation index re-create the request).
#[derive(Default)]
struct Failures {
    count: u64,
    reasons: Vec<String>,
}

impl Failures {
    fn add(&mut self, reason: String) {
        self.count += 1;
        if self.reasons.len() < 10 {
            self.reasons.push(reason);
        }
    }
}

fn send(client: &mut Client, op: &Op, phase: Phase, boot: usize) -> Rec {
    let (path, body) = match op {
        Op::Solve { body, .. } => ("/v1/solve".to_string(), body.clone()),
        Op::Write(w) => (format!("/v1/datasets/{BULK}/facts"), w.body()),
    };
    let started = Instant::now();
    let reply = client.post(&path, &body).map_err(|e| e.to_string());
    Rec {
        phase,
        boot,
        op: op.clone(),
        ms: started.elapsed().as_secs_f64() * 1e3,
        reply,
    }
}

fn json_field(body: &[u8], field: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let value: serde::Value = serde_json::from_str(text).ok()?;
    value
        .get(field)
        .and_then(|v| v.as_str())
        .map(str::to_string)
}

/// `/metrics` counter values by name (label-free lines only).
fn scrape(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    let r = client.get("/metrics").map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&r.body).into_owned();
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.trim().parse().ok()?)))
        .collect())
}

fn delta(m0: &BTreeMap<String, f64>, m1: &BTreeMap<String, f64>, key: &str) -> f64 {
    m1.get(key).copied().unwrap_or(0.0) - m0.get(key).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Check one record's status, method and cache behaviour. `in_window`
/// is false for warm-up requests (which legitimately miss).
fn check(kind: Kind, i: usize, rec: &Rec, in_window: bool, fails: &mut Failures) {
    let what = format!("{} seed-op {i}", kind.name());
    let reply = match &rec.reply {
        Ok(r) => r,
        Err(e) => return fails.add(format!("{what}: connection failed: {e}")),
    };
    if !(200..300).contains(&reply.status) {
        let body = String::from_utf8_lossy(&reply.body);
        return fails.add(format!("{what}: status {}: {body}", reply.status));
    }
    if let Op::Solve { .. } = rec.op {
        let method = json_field(&reply.body, "method").unwrap_or_default();
        if method != kind.method() {
            return fails.add(format!(
                "{what}: answered by {method:?}, workload measures {:?}",
                kind.method()
            ));
        }
        let cache = reply.header("x-qrel-cache").unwrap_or("");
        let plan = reply.header("x-qrel-plan").unwrap_or("");
        match kind {
            Kind::HotHits if in_window && cache != "hit" => {
                fails.add(format!("{what}: result-cache {cache:?}, expected a hit"))
            }
            Kind::PlanRw if in_window && (cache != "miss" || plan != "hit") => fails.add(format!(
                "{what}: result cache {cache:?} / plan cache {plan:?}, expected miss / hit"
            )),
            _ => {}
        }
    }
}

/// What one run measured.
struct Measured {
    /// Every operation, in the order it was sent, across all boots.
    log: Vec<Rec>,
    /// Launch-to-end-of-warm-up time of each boot.
    setup_s: Vec<f64>,
    /// Each window boot's `VmHWM` at the end of its timed reads.
    rss_kib: Vec<f64>,
    /// `/metrics` counters summed over the boots' windows.
    counters: BTreeMap<String, f64>,
}

impl Measured {
    fn window(&self) -> impl Iterator<Item = &Rec> {
        self.log.iter().filter(|r| r.phase == Phase::Window)
    }

    fn window_solves(&self) -> impl Iterator<Item = &Rec> {
        self.window().filter(|r| matches!(r.op, Op::Solve { .. }))
    }

    /// Latencies of the timed and probe writes.
    fn writes_ms(&self) -> Vec<f64> {
        self.log
            .iter()
            .filter(|r| r.phase != Phase::Warm && matches!(r.op, Op::Write(_)))
            .map(|r| r.ms)
            .collect()
    }

    fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<String, String> {
    let kind = args.kind;
    let bulk = gen::bulk_db(args.seed);
    let store_dir = run_dir.join("store");
    let stored = gen::write_store(&store_dir, &bulk)?;
    let (boots, setup_only) = if args.trace {
        (1, 0)
    } else {
        (BOOTS, SETUP_ONLY_BOOTS)
    };
    println!(
        "{} seed {}: store {BULK} {} facts, db-hash {:016x}",
        kind.name(),
        args.seed,
        stored.live_facts,
        stored.db_hash
    );
    let mut fails = Failures::default();
    let m = measure(
        args,
        boots,
        setup_only,
        &bulk,
        &store_dir,
        stored.db_hash,
        &mut fails,
    )?;

    for (i, r) in m.log.iter().enumerate() {
        check(kind, i, r, r.phase != Phase::Warm, &mut fails);
    }
    if kind == Kind::PlanRw {
        check_reads_move(&m, &mut fails);
    }

    let reads: Vec<f64> = m.window_solves().map(|r| r.ms).collect();
    let writes = m.writes_ms();
    println!("reads  (ms): {}", describe(&reads));
    let per_boot: Vec<String> = (0..boots)
        .map(|b| {
            let v: Vec<f64> = m
                .window_solves()
                .filter(|r| r.boot == b)
                .map(|r| r.ms)
                .collect();
            format!("{:.3}", median(&v).unwrap_or(f64::NAN))
        })
        .collect();
    println!("reads p50 per boot (ms): {}", per_boot.join(" "));
    println!("writes (ms): {}", describe(&writes));
    let window_ops = m.window().count();
    let window_s: f64 = m.window().map(|r| r.ms).sum::<f64>() / 1e3;
    println!(
        "closed loop over {boots} boot(s): {window_ops} ops in {window_s:.2}s of request time \
         ({:.1} ops/s)",
        window_ops as f64 / window_s.max(1e-9)
    );
    let mut sent = Vec::new();
    for r in &m.log {
        match &r.op {
            Op::Solve { body, .. } => sent.extend_from_slice(body),
            Op::Write(w) => sent.extend(w.body()),
        }
    }
    println!(
        "request stream digest: {:016x}",
        qrel_serve::cache::fnv1a(&sent)
    );
    print_shares(kind, &bulk, &m);

    let per_layer = if args.trace {
        Some(traced(args, &bulk, run_dir, &m, &mut fails)?)
    } else {
        verify_sample(kind, &bulk, run_dir, &m, &mut fails)?;
        None
    };

    let attempted = m.log.len() as u64;
    for reason in &fails.reasons {
        println!("FAILED: {reason}");
    }
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match per_layer {
        None => {
            let p50 = |v: &[f64], what: &str| {
                median(v).ok_or_else(|| format!("no {what} completed in the window"))
            };
            metrics.push(("latency_p50_ms".into(), p50(&reads, "reads")?, "ms"));
            metrics.push(("write_latency_p50_ms".into(), p50(&writes, "writes")?, "ms"));
            metrics.push(("setup_s".into(), p50(&m.setup_s, "boots")?, "s"));
            metrics.push((
                "peak_rss_mb".into(),
                p50(&m.rss_kib, "boots")? / 1024.0,
                "MB",
            ));
        }
        Some(layers) => metrics = layers,
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        fails.count == 0,
        fails.count,
        body.join(", ")
    ))
}

/// Launch `qrel serve` on the store and send the warm-up pass. Returns
/// the server, a client connected to it and the launch-to-end-of-warm-up
/// time in seconds.
fn boot(
    args: &Args,
    store_dir: &Path,
    warm_ops: &[Op],
    index: usize,
    m: &mut Measured,
) -> Result<(Server, Client, f64), String> {
    let started = Instant::now();
    let server = Server::launch(&args.qrel, store_dir)?;
    server.wait_ready()?;
    let mut client = Client::new(server.addr);
    for op in warm_ops {
        m.log.push(send(&mut client, op, Phase::Warm, index));
    }
    Ok((server, client, started.elapsed().as_secs_f64()))
}

/// Boot the server `boots` times on the same store; after each boot,
/// warm up, run a share of the timed closed loop, read the peak RSS, send
/// a share of the write probe and stop it. Spreading the window over
/// several server processes averages out what differs between one
/// process and the next, such as its memory layout. Before each of these
/// boots, `setup_only` more boots only warm up and stop, so `setup_s` is
/// a median over `boots * (setup_only + 1)` boots spread through the run.
fn measure(
    args: &Args,
    boots: usize,
    setup_only: usize,
    bulk: &gen::Db,
    store_dir: &Path,
    db_hash: u64,
    fails: &mut Failures,
) -> Result<Measured, String> {
    let mut stream = Stream::new(args.kind, args.seed, bulk);
    let warm_ops = stream.warmup();
    let mut probe_writes = Stream::probe_writes(args.seed, bulk);
    let mut think = gen::Rng::new(args.seed, 7);
    let pause = |think: &mut gen::Rng| {
        std::thread::sleep(Duration::from_micros(think.below(THINK_US)));
    };
    let share = Duration::from_secs(args.seconds) / boots as u32;
    let mut m = Measured {
        log: Vec::new(),
        setup_s: Vec::new(),
        rss_kib: Vec::new(),
        counters: BTreeMap::new(),
    };
    let mut expected_hash = db_hash;
    let mut connects = 0;
    for b in 0..boots {
        for _ in 0..setup_only {
            let (server, mut client, setup) = boot(args, store_dir, &warm_ops, b, &mut m)?;
            m.setup_s.push(setup);
            check_store_hash(&mut client, expected_hash, fails);
            connects += client.connects;
            if let Err(e) = server.stop() {
                fails.add(e);
            }
        }
        let (server, mut client, setup) = boot(args, store_dir, &warm_ops, b, &mut m)?;
        m.setup_s.push(setup);
        check_store_hash(&mut client, expected_hash, fails);

        let m0 = scrape(&mut client)?;
        let started = Instant::now();
        // `plan_rw` stops only after a whole cycle, so the next boot's
        // warm-up never leaves a cached answer for the window's reads.
        while started.elapsed() < share || !stream.at_cycle_start() {
            let op = stream.next_op();
            pause(&mut think);
            m.log.push(send(&mut client, &op, Phase::Window, b));
        }
        let m1 = scrape(&mut client)?;
        for key in m1.keys() {
            *m.counters.entry(key.clone()).or_default() += delta(&m0, &m1, key);
        }
        // The peak is read before the probe, whose dataset rebuilds are
        // not the workload's own traffic.
        m.rss_kib.push(
            server
                .peak_rss_kib()
                .ok_or("cannot read the server's VmHWM")? as f64,
        );
        if args.kind != Kind::PlanRw {
            let probes = PROBE_WRITES * (b + 1) / boots - PROBE_WRITES * b / boots;
            for _ in 0..probes {
                let op = Op::Write(probe_writes.next_write());
                pause(&mut think);
                m.log.push(send(&mut client, &op, Phase::Probe, b));
            }
        }
        if let Some(hash) = m.log.iter().rev().find_map(ack_hash) {
            expected_hash = hash;
        }
        connects += client.connects;
        if let Err(e) = server.stop() {
            fails.add(e);
        }
    }
    let setup: Vec<String> = m.setup_s.iter().map(|s| format!("{:.3}", s)).collect();
    println!("setup per boot (s): {}", setup.join(" "));
    println!(
        "client: {connects} connections for {} requests",
        m.log.len()
    );
    Ok(m)
}

/// The seed pins the store: `GET /v1/datasets` must report the db-hash
/// the generator committed (or the last write acknowledged).
fn check_store_hash(client: &mut Client, db_hash: u64, fails: &mut Failures) {
    let want = format!("{db_hash:016x}");
    match client.get("/v1/datasets") {
        Ok(r) if String::from_utf8_lossy(&r.body).contains(&want) => {}
        Ok(r) => fails.add(format!(
            "GET /v1/datasets does not report db-hash {want}: {}",
            String::from_utf8_lossy(&r.body)
        )),
        Err(e) => fails.add(format!("GET /v1/datasets failed: {e}")),
    }
}

/// A `plan_rw` read must reflect the write before it: each write moves
/// the exact answer of every standing query, so a read whose bytes equal
/// the same query's previous read is stale.
fn check_reads_move(m: &Measured, fails: &mut Failures) {
    let mut last: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for (i, r) in m.log.iter().enumerate() {
        if r.phase != Phase::Window {
            continue;
        }
        if let (Op::Solve { body, .. }, Ok(reply)) = (&r.op, &r.reply) {
            if last.insert(body.clone(), reply.body.clone()).as_ref() == Some(&reply.body) {
                fails.add(format!(
                    "plan_rw seed-op {i}: read did not reflect the preceding write"
                ));
            }
        }
    }
}

fn print_shares(kind: Kind, bulk: &gen::Db, m: &Measured) {
    let solve_recs: Vec<&Rec> = m.window_solves().collect();
    let n = solve_recs.len().max(1) as f64;
    let count = |f: &dyn Fn(&Reply) -> bool| {
        solve_recs
            .iter()
            .filter(|r| r.reply.as_ref().is_ok_and(f))
            .count() as f64
    };
    let hdr = |name: &'static str, v: &'static str| move |r: &Reply| r.header(name) == Some(v);
    println!(
        "share: result-cache hits {:.3} (X-Qrel-Cache), {:.3} (/metrics)",
        count(&hdr("x-qrel-cache", "hit")) / n,
        cache_ratio(m)
    );
    println!(
        "share: plan cache hit {:.3} / miss {:.3} / cached decline {:.3} (X-Qrel-Plan); \
         served from the plan cache {:.3} (/metrics)",
        count(&hdr("x-qrel-plan", "hit")) / n,
        count(&hdr("x-qrel-plan", "miss")) / n,
        count(&hdr("x-qrel-plan", "unsafe")) / n,
        plan_cache_ratio(m)
    );
    let mut methods: BTreeMap<String, f64> = BTreeMap::new();
    for r in &solve_recs {
        if let Ok(reply) = &r.reply {
            let m = json_field(&reply.body, "method").unwrap_or_else(|| "none".into());
            *methods.entry(m).or_default() += 1.0;
        }
    }
    let by_method: Vec<String> = methods
        .iter()
        .map(|(k, v)| format!("{k} {:.3}", v / n))
        .collect();
    println!("share: answered by {}", by_method.join(", "));
    let inline: Vec<(usize, bool)> = solve_recs
        .iter()
        .filter_map(|r| match &r.op {
            Op::Solve {
                body,
                inline: Some(info),
            } => Some((body.len(), info.dyadic)),
            _ => None,
        })
        .collect();
    let dyadic = if inline.is_empty() {
        if bulk.all_dyadic() {
            1.0
        } else {
            0.0
        }
    } else {
        inline.iter().filter(|(_, d)| *d).count() as f64 / inline.len() as f64
    };
    let bytes: Vec<f64> = inline.iter().map(|(b, _)| *b as f64).collect();
    let writes = m.window().filter(|r| matches!(r.op, Op::Write(_))).count() as f64;
    let probes = m.log.iter().filter(|r| r.phase == Phase::Probe).count() as f64;
    println!(
        "share: dyadic-mu {:.3}; inline body bytes median {}; writes per read {:.3} \
         (plus {:.3} probe writes per read) ({})",
        dyadic,
        median(&bytes).map_or("n/a (named dataset)".to_string(), |b| format!("{b:.0}")),
        writes / n,
        probes / n,
        kind.name()
    );
}

/// Plan-cache lookups in the window answered from the cache (a cached
/// plan or a cached decline; every decline was compiled in warm-up).
fn plan_cache_ratio(m: &Measured) -> f64 {
    let hits = m.counter("qrel_plan_cache_hits_total");
    let misses = m.counter("qrel_plan_cache_misses_total");
    let declines = m.counter("qrel_plan_unsafe_total");
    ratio(hits + declines, hits + misses + declines)
}

/// Result-cache lookups in the window that hit.
fn cache_ratio(m: &Measured) -> f64 {
    let hits = m.counter("qrel_cache_hits_total");
    ratio(hits, hits + m.counter("qrel_cache_misses_total"))
}

/// Load the bulk dataset from a freshly generated store the way the
/// server boots it, returning the store and the `(model, db-hash)`.
fn load_reference(
    bulk: &gen::Db,
    dir: &Path,
) -> Result<(qrel_store::Store, qrel_prob::UnreliableDatabase, u64), String> {
    gen::write_store(dir, bulk)?;
    let store = qrel_store::Store::open(dir).map_err(|e| e.to_string())?;
    let mut ds = store.load(BULK).map_err(|e| e.to_string())?;
    let ud = ds.build().map_err(|e| e.to_string())?;
    let hash = ds.entry().db_hash;
    Ok((store, ud, hash))
}

fn ack_hash(rec: &Rec) -> Option<u64> {
    let reply = rec.reply.as_ref().ok()?;
    u64::from_str_radix(&json_field(&reply.body, "db_hash")?, 16).ok()
}

/// A write's ack must carry the db-hash an independent commit of the
/// same write to a second store gives.
fn check_ack(kind: Kind, i: usize, rec: &Rec, hash: u64, fails: &mut Failures) {
    if Some(hash) != ack_hash(rec) {
        fails.add(format!(
            "{} seed-op {i}: store commit gave db-hash {hash:016x}, the server {:?}",
            kind.name(),
            ack_hash(rec).map(|h| format!("{h:016x}"))
        ));
    }
}

/// Compare one served reply with the library's bytes.
fn compare(
    kind: Kind,
    i: usize,
    rec: &Rec,
    lib: &Result<replay::Answer, String>,
    fails: &mut Failures,
) {
    let Ok(reply) = &rec.reply else { return };
    match lib {
        Ok(a) if a.body == reply.body => {}
        Ok(a) => fails.add(format!(
            "{} seed-op {i}: served bytes differ from the library's\n  served:  {}\n  library: {}",
            kind.name(),
            String::from_utf8_lossy(&reply.body),
            String::from_utf8_lossy(&a.body)
        )),
        Err(e) => fails.add(format!("{} seed-op {i}: library refused: {e}", kind.name())),
    }
}

/// Without tracing: re-solve a deterministic sample in process and
/// compare bytes (the serve ≡ library contract). Every write is committed
/// to a second store and its db-hash compared with the server's ack.
fn verify_sample(
    kind: Kind,
    bulk: &gen::Db,
    run_dir: &Path,
    m: &Measured,
    fails: &mut Failures,
) -> Result<(), String> {
    let (mut store, ud, hash) = load_reference(bulk, &run_dir.join("reference"))?;
    let mut lib = Library::new(false);
    lib.add_named(BULK, ud, hash);
    let mut t = Tracer::new(false);
    let cycle = gen::PLAN_QUERIES.len() as u64 + 1;
    let (mut window_op, mut checked) = (0, 0);
    // The in-memory dataset is rebuilt from the store only before a
    // sampled read needs it.
    let mut stale = false;
    for (i, rec) in m.log.iter().enumerate() {
        let sampled = match rec.phase {
            Phase::Warm => true,
            Phase::Probe => false,
            Phase::Window => {
                window_op += 1;
                match kind {
                    Kind::PlanRw => ((window_op - 1) / cycle).is_multiple_of(VERIFY_EVERY),
                    _ => (window_op - 1).is_multiple_of(VERIFY_EVERY),
                }
            }
        };
        match &rec.op {
            Op::Write(w) => {
                let (hash, _) = lib.commit(BULK, w, &mut store, &mut t)?;
                check_ack(kind, i, rec, hash, fails);
                stale = true;
            }
            Op::Solve { body, .. } if sampled => {
                if stale {
                    lib.reload(BULK, &store, &mut t)?;
                    stale = false;
                }
                let ans = lib.solve(body, &mut t, i as u64);
                compare(kind, i, rec, &ans, fails);
                checked += 1;
            }
            Op::Solve { .. } => {}
        }
    }
    println!("verified: {checked} replies (warm-up and sampled window) byte-equal to the library");
    Ok(())
}

/// Per-layer metric definitions: (metric, source span, unit). Time
/// metrics are the median self time per call of the span.
const SPAN_METRICS: [(&str, &str, &str); 16] = [
    ("serve.request_parse_us", "serve.request_parse", "us"),
    ("prob.spec_build_us", "prob.spec_build", "us"),
    ("serve.db_hash_us", "serve.db_hash", "us"),
    ("logic.query_parse_us", "logic.query_parse", "us"),
    ("serve.cache_get_us", "serve.cache_get", "us"),
    ("serve.plan_lookup_us", "serve.plan_lookup", "us"),
    ("sched.handoff_us", "sched.handoff", "us"),
    ("runtime.solve_ms", "runtime.solve", "ms"),
    ("runtime.declined_rung_ms", "runtime.declined_rung", "ms"),
    ("plan.eval_ms", "plan.eval", "ms"),
    ("core.exact_ms", "core.exact", "ms"),
    ("eval.ground_ms", "eval.ground", "ms"),
    ("count.fptras_ms", "count.fptras", "ms"),
    ("serve.reply_serialize_us", "serve.reply_serialize", "us"),
    ("store.commit_ms", "store.commit", "ms"),
    ("serve.registry_rebuild_ms", "serve.registry_rebuild", "ms"),
];

/// Self time of every span (its duration minus its children's), in
/// nanoseconds.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c) as f64)
        .collect()
}

/// With tracing: replay a prefix of the served stream in process twice
/// (untraced, then traced), compare every replayed reply with the
/// served bytes, and derive the per-layer metrics.
fn traced(
    args: &Args,
    bulk: &gen::Db,
    run_dir: &Path,
    m: &Measured,
    fails: &mut Failures,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let kind = args.kind;
    // Store layer: open and load+build, timed in process.
    let (mut store_open, mut store_load) = (Vec::new(), Vec::new());
    let (mut store0, ud0, hash0) = load_reference(bulk, &run_dir.join("reference"))?;
    for _ in 0..STORE_REPS {
        let t = Instant::now();
        let store =
            qrel_store::Store::open(&run_dir.join("reference")).map_err(|e| e.to_string())?;
        store_open.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let _ = store
            .load(BULK)
            .and_then(|mut ds| ds.build())
            .map_err(|e| e.to_string())?;
        store_load.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // The replayed prefix: the warm-up, as many window operations as
    // took a quarter of the window end to end, and every probe write.
    let budget_ms = args.seconds as f64 * 1e3 / 4.0;
    let mut spent = 0.0;
    let mut timed = std::collections::BTreeSet::new();
    let mut ops: Vec<&Rec> = Vec::new();
    for rec in &m.log {
        if rec.phase == Phase::Window {
            spent += rec.ms;
            if spent > budget_ms && !timed.is_empty() {
                continue;
            }
            timed.insert(ops.len());
        }
        ops.push(rec);
    }
    let prefix = timed.len();

    // Two libraries replay the same operations side by side, one
    // untraced and one traced, alternating which goes first, so both
    // timings of a request are taken moments apart. Writes are committed
    // and rebuilt as the server does, so reads run on models built the
    // same way as the server's.
    let (mut store1, ud1, hash1) = load_reference(bulk, &run_dir.join("traced"))?;
    let mut plain = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut lib0 = Library::new(false);
    lib0.add_named(BULK, ud0, hash0);
    let mut lib1 = Library::new(true);
    lib1.add_named(BULK, ud1, hash1);
    let (mut plain_ms, mut traced_ms) = (BTreeMap::new(), BTreeMap::new());
    let mut facts = Vec::new();
    let mut rows = Vec::new();
    for (i, rec) in ops.iter().enumerate() {
        match &rec.op {
            Op::Write(w) => {
                lib0.commit(BULK, w, &mut store0, &mut plain)?;
                lib0.reload(BULK, &store0, &mut plain)?;
                let root = tracer.begin_request(i as u64, "write");
                let out = lib1
                    .commit(BULK, w, &mut store1, &mut tracer)
                    .and_then(|c| lib1.reload(BULK, &store1, &mut tracer).map(|()| c));
                tracer.end_request(root);
                let (hash, n) = out?;
                rows.push(n as f64);
                check_ack(kind, i, rec, hash, fails);
            }
            Op::Solve { body, .. } => {
                let (ans0, ans1) = if i % 2 == 0 {
                    let a0 = lib0.solve(body, &mut plain, i as u64);
                    (a0, lib1.solve(body, &mut tracer, i as u64))
                } else {
                    let a1 = lib1.solve(body, &mut tracer, i as u64);
                    (lib0.solve(body, &mut plain, i as u64), a1)
                };
                compare(kind, i, rec, &ans0, fails);
                if let (Ok(a0), Ok(a1)) = (&ans0, &ans1) {
                    if a0.body != a1.body {
                        fails.add(format!(
                            "{} seed-op {i}: traced replay answered differently",
                            kind.name()
                        ));
                    }
                    plain_ms.insert(i, a0.request_ms);
                    traced_ms.insert(i, a1.request_ms);
                    facts.extend(a1.facts.clone());
                }
            }
        }
    }
    write_spans(args, &tracer.spans)?;

    // Aggregate.
    let own = self_times(&tracer.spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, ns) in tracer.spans.iter().zip(&own) {
        by_name.entry(s.name).or_default().push(*ns);
    }
    let unexplained: Vec<f64> = tracer
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "request")
        .map(|(_, ns)| ns / 1e6)
        .collect();
    let in_window = |i: &usize| timed.contains(i);
    let e2e: Vec<f64> = ops
        .iter()
        .enumerate()
        .filter(|(i, r)| in_window(i) && matches!(r.op, Op::Solve { .. }))
        .map(|(_, r)| r.ms)
        .collect();
    let inproc: Vec<f64> = plain_ms
        .iter()
        .filter(|(i, _)| in_window(i))
        .map(|(_, v)| *v)
        .collect();
    let inproc_traced: Vec<f64> = traced_ms
        .iter()
        .filter(|(i, _)| in_window(i))
        .map(|(_, v)| *v)
        .collect();
    let e2e_p50 = median(&e2e).unwrap_or(0.0);
    let inproc_p50 = median(&inproc).unwrap_or(0.0);
    let overhead_ms = (inproc_traced.iter().sum::<f64>() - inproc.iter().sum::<f64>())
        / inproc.len().max(1) as f64;

    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    out.push(("serve.transport_ms".into(), e2e_p50 - inproc_p50, "ms"));
    for (metric, span, unit) in SPAN_METRICS {
        let scale = if unit == "us" { 1e3 } else { 1e6 };
        let v = by_name.get(span).and_then(|v| median(v)).unwrap_or(0.0) / scale;
        out.push((metric.into(), v, unit));
    }
    let count = |f: &dyn Fn(&replay::SolveFacts) -> u64| {
        let v: Vec<f64> = facts.iter().map(|x| f(x) as f64).collect();
        median(&v).unwrap_or(0.0)
    };
    out.push((
        "runtime.rungs_tried".into(),
        count(&|f| f.rungs_tried),
        "count",
    ));
    out.push(("plan.nodes".into(), count(&|f| f.plan_nodes), "count"));
    out.push((
        "arith.answer_bits".into(),
        count(&|f| f.answer_bits),
        "bits",
    ));
    out.push(("core.worlds".into(), count(&|f| f.worlds), "count"));
    out.push((
        "eval.lineage_terms".into(),
        count(&|f| f.lineage_terms),
        "count",
    ));
    out.push(("count.samples".into(), count(&|f| f.samples), "count"));
    out.push((
        "store.commit_rows".into(),
        median(&rows).unwrap_or(0.0),
        "count",
    ));
    out.push((
        "store.open_ms".into(),
        median(&store_open).unwrap_or(0.0),
        "ms",
    ));
    out.push((
        "store.load_ms".into(),
        median(&store_load).unwrap_or(0.0),
        "ms",
    ));
    out.push(("serve.cache_hit_ratio".into(), cache_ratio(m), "ratio"));
    out.push((
        "serve.plan_cache_hit_ratio".into(),
        plan_cache_ratio(m),
        "ratio",
    ));
    out.push((
        "unexplained_ms".into(),
        median(&unexplained).unwrap_or(0.0),
        "ms",
    ));
    out.push(("trace.overhead_ms".into(), overhead_ms, "ms"));

    println!(
        "replay: {} of {} window ops (+{} warm-up and probe ops); end-to-end p50 {:.3} ms, \
         in-process p50 {:.3} ms untraced / {:.3} ms traced; tracing overhead {:.4} ms per request",
        prefix,
        m.window().count(),
        ops.len() - prefix,
        e2e_p50,
        inproc_p50,
        median(&inproc_traced).unwrap_or(0.0),
        overhead_ms
    );
    println!("in-process (ms): {}", describe(&inproc));
    for (metric, value, unit) in &out {
        println!("layer {metric:<28} {value:>14.4} {unit}");
    }
    print_dominance(kind, e2e_p50, inproc_p50, &out, m);
    Ok(out)
}

/// State whether the layers predicted to dominate each workload do.
fn print_dominance(
    kind: Kind,
    e2e_p50: f64,
    inproc_p50: f64,
    layers: &[(String, f64, &str)],
    m: &Measured,
) {
    let ms = |name: &str| {
        layers
            .iter()
            .find(|(k, _, _)| k == name)
            .map(|(_, v, unit)| if *unit == "us" { v / 1e3 } else { *v })
            .unwrap_or(0.0)
    };
    let (label, part, whole) = match kind {
        Kind::HotHits => (
            "transport + spec build + db-hash of the hit latency",
            ms("serve.transport_ms") + ms("prob.spec_build_us") + ms("serve.db_hash_us"),
            e2e_p50,
        ),
        Kind::PlanRw => (
            "plan.eval of the in-process read",
            ms("plan.eval_ms"),
            inproc_p50,
        ),
        Kind::UnsafeExact => (
            "core.exact of the in-process request",
            ms("core.exact_ms"),
            inproc_p50,
        ),
        Kind::UnsafeSampled => (
            "eval.ground + count.fptras of the in-process request",
            ms("eval.ground_ms") + ms("count.fptras_ms"),
            inproc_p50,
        ),
    };
    let transport = ratio(ms("serve.transport_ms"), e2e_p50);
    let verdict = match kind {
        Kind::HotHits => "a large share predicted",
        _ if transport <= 0.10 => "at most 10% predicted: prediction met",
        _ => "at most 10% predicted: MISMATCH: prediction not met",
    };
    println!(
        "dominance: serve.transport of the end-to-end p50: {:.1}% ({verdict})",
        transport * 100.0
    );
    let share = ratio(part, whole);
    println!(
        "dominance: {label}: {:.1}% -> {}",
        share * 100.0,
        if share >= 0.5 {
            "prediction met"
        } else {
            "MISMATCH: prediction not met"
        }
    );
    let writes = m.writes_ms();
    let write_share = ratio(
        ms("store.commit_ms") + ms("serve.registry_rebuild_ms"),
        median(&writes).unwrap_or(0.0),
    );
    println!(
        "dominance: store.commit + serve.registry_rebuild of the write latency: {:.1}% -> {}",
        write_share * 100.0,
        if write_share >= 0.5 {
            "prediction met"
        } else {
            "MISMATCH: prediction not met"
        }
    );
}

/// Write the spans as TSV next to the run directory (kept after the run).
fn write_spans(args: &Args, spans: &[Span]) -> Result<(), String> {
    let dir = args.workdir.join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut text = String::from("id\tname\trequest\tparent\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        text.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{}\t{}\n",
            s.name,
            s.request,
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        ));
    }
    let path = dir.join(format!("{}-seed{}.tsv", args.kind.name(), args.seed));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}
