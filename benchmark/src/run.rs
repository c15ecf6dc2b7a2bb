//! One benchmark run: set-up, repetitions on fresh databases, the
//! answer check against a naive database, and the metrics.
//!
//! A run sets up several times (set-up time is their median), then makes
//! [`REPS`] repetitions. Each repetition builds a fresh database, replays
//! the head of the script untimed, then replays on from there against the
//! clock for its share of `--seconds`. Every repetition starts at the
//! same place in the same script, so repetitions repeat the same work and
//! the reported figure is the median over them.

use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use rbat::Value;
use rcy_server::protocol::{
    decode_request, decode_response, displayable, encode_request, encode_response,
};
use rcy_server::{FrameDecoder, QueryResult, Request, Response};
use recycling::{RecyclerStats, Session};

use crate::json::Json;
use crate::stats::{median, peak_rss_mib, percentile, quartiles, supports_p99};
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    build_system, setup, Door, Inputs, Knobs, Op, Refresher, Script, Sizes, System, Workload,
    CHECK_EVERY,
};

/// Repetitions per run, each on a fresh database.
pub const REPS: usize = 7;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Latency samples one repetition can keep. The buffer is allocated and
/// touched once, before the first repetition, so that peak RSS does not
/// grow with the number of queries a faster build gets through.
const SAMPLE_CAP: usize = 2 << 20;
/// Sampled answers one repetition keeps for the check — enough to cover
/// every script several times over, and a bound on the memory and time
/// the check costs however fast the build under test is.
pub const CHECK_MAX: usize = 4096;

/// One reported metric: `(name, value, unit)`. The names, units and order
/// are those of `BENCHMARK.json`; a self-test holds the two together.
pub type Metric = (&'static str, f64, &'static str);

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub sizes: Sizes,
    pub knobs: Knobs,
    pub seed: u64,
    /// Measured time of the whole run, shared equally by the repetitions.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
}

/// When a repetition's timed part ends: at the first chunk boundary at
/// which either limit is reached.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Measured time.
    pub time: Duration,
    /// Chunks — how the self-tests make two repetitions do identical work.
    pub chunks: usize,
}

/// What one repetition observed.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Timed queries answered.
    pub queries: u64,
    /// Timed refresh blocks committed.
    pub commits: u64,
    /// Timed operations that returned an error (a failed window counts
    /// each of its queries).
    pub errors: u64,
    /// Sum of the client-observed times of the timed operations.
    pub timed: Duration,
    /// Median and 99th percentile of the query latencies (of the window
    /// latencies on `sky_tcp_pipe`), in µs, and how many there were.
    pub p50_us: Option<f64>,
    pub p99_us: Option<f64>,
    pub latency_samples: usize,
    /// Median refresh-block commit latency, µs.
    pub commit_p50_us: Option<f64>,
    /// `(sequence number, answer)` of every [`CHECK_EVERY`]-th timed
    /// query, up to [`CHECK_MAX`] of them.
    pub answers: Vec<(usize, Answer)>,
    /// The recycler's counters before and after the timed part.
    pub before: RecyclerStats,
    pub after: RecyclerStats,
    /// Pool bytes when the timed part ended.
    pub pool_bytes: usize,
    /// Instructions, marked instructions and result bytes of the traced
    /// queries (zero when untraced).
    pub instrs: u64,
    pub marked: u64,
    pub result_bytes: u64,
    /// Wire bytes of the traced requests and replies, frame headers in.
    pub wire_bytes: u64,
    /// Server fault counters when the repetition ended.
    pub server_faults: [u64; 3],
    /// Did this repetition record spans?
    pub traced: bool,
}

impl RepOutcome {
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.timed.as_secs_f64()
    }
}

/// What is kept of a sampled answer until it is checked: a digest of the
/// export names and the exact values (BATs by their wire rendering, so a
/// reply that crossed the wire compares like one that did not), and the
/// floats themselves. Floats compare within [`FLOAT_TOLERANCE`]: under
/// subsumption a sum adds the same terms in another order, and TPC-H Q19
/// differs from the naive answer in the last bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    exact: u64,
    floats: Vec<f64>,
}

/// Relative difference up to which two float results are the same answer.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

impl Answer {
    pub fn of(exports: &[(String, Value)]) -> Answer {
        let mut h = DefaultHasher::new();
        let mut floats = Vec::new();
        for (name, value) in exports {
            name.hash(&mut h);
            match value {
                Value::Float(x) => floats.push(*x),
                other => displayable(other).hash(&mut h),
            }
        }
        Answer {
            exact: h.finish(),
            floats,
        }
    }

    pub fn agrees(&self, other: &Answer) -> bool {
        self.exact == other.exact
            && self.floats.len() == other.floats.len()
            && self.floats.iter().zip(&other.floats).all(|(a, b)| {
                a.to_bits() == b.to_bits()
                    || (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs())
            })
    }
}

/// The state of one repetition in flight.
struct Rep<'a> {
    workload: Workload,
    script: &'a Script,
    system: System,
    door: Door,
    /// An identically warmed in-process database, for traced TCP runs:
    /// what the same query costs without the server in front.
    twin: Option<(System, Session)>,
    refresher: Refresher,
    /// Operations executed so far, warm-up included.
    seq: usize,
    samples: &'a mut Vec<u32>,
    commit_samples: Vec<u32>,
    out: RepOutcome,
}

fn nanos(start: Instant, end: Instant) -> u32 {
    u32::try_from(end.duration_since(start).as_nanos()).unwrap_or(u32::MAX)
}

impl Rep<'_> {
    fn op(&self, seq: usize) -> &Op {
        &self.script.ops[seq % self.script.ops.len()]
    }

    /// Execute the next window of operations. Timed windows are recorded
    /// in `self.out`; with a tracer, spans are recorded too.
    fn step(&mut self, timed: bool, mut tracer: Option<&mut Tracer>) {
        if self.op(self.seq) == &Op::Refresh {
            self.refresh(timed, tracer);
            return;
        }
        // a window never straddles a refresh: only the pipelined sky
        // workload has windows, and the sky scripts have no refreshes
        let window = self.workload.window();
        let first = self.seq;
        self.seq += window;
        let script = self.script;
        let query = |seq: usize| match &script.ops[seq % script.ops.len()] {
            Op::Query { template, params } => (*template, params.as_slice()),
            Op::Refresh => unreachable!("refresh inside a window"),
        };

        let (start, end, answers) = match &mut self.door {
            Door::InProcess(session) => {
                let (t, params) = query(first);
                let template = &self.system.templates[t];
                match tracer.as_deref_mut() {
                    None => {
                        let start = Instant::now();
                        let reply = session.query(template, params);
                        let end = Instant::now();
                        let answers = reply.map(|r| vec![r.exports]).map_err(|e| e.to_string());
                        (start, end, answers)
                    }
                    // traced: the same call, but keeping the interpreter's
                    // per-instruction profile
                    Some(tracer) => {
                        let start = Instant::now();
                        let output = session.query_output(template, params);
                        let end = Instant::now();
                        let answers = output.map_err(|e| e.to_string()).map(|output| {
                            let root =
                                tracer.span("recycling.query", start, end, None, first as u64);
                            self.out.account(&output.stats, tracer, root, first as u64);
                            vec![output.exports]
                        });
                        (start, end, answers)
                    }
                }
            }
            Door::Tcp(client) if window == 1 => {
                let (t, params) = query(first);
                let name = &script.templates[t].name;
                let start = Instant::now();
                let reply = client.query(name, params);
                let end = Instant::now();
                let answers = reply.map(|r| vec![r.exports]).map_err(|e| e.to_string());
                (start, end, answers)
            }
            Door::Tcp(client) => {
                let batch: Vec<(&str, &[Value])> = (first..first + window)
                    .map(|seq| {
                        let (t, params) = query(seq);
                        (script.templates[t].name.as_str(), params)
                    })
                    .collect();
                let start = Instant::now();
                let replies = client.query_many(&batch);
                let end = Instant::now();
                let answers = replies
                    .map(|rs| rs.into_iter().map(|r| r.exports).collect())
                    .map_err(|e| e.to_string());
                (start, end, answers)
            }
        };

        if let (Some(tracer), Some((twin, session)), Ok(answers)) =
            (tracer, self.twin.as_mut(), answers.as_ref())
        {
            let root = tracer.span("client.roundtrip", start, end, None, first as u64);
            for (i, exports) in answers.iter().enumerate() {
                let (t, params) = query(first + i);
                self.out.wire_bytes += replicate_wire(
                    tracer,
                    root,
                    (first + i) as u64,
                    &script.templates[t].name,
                    params,
                    exports,
                );
                let start = Instant::now();
                let output = session.query_output(&twin.templates[t], params);
                let end = Instant::now();
                if let Ok(output) = output {
                    let span = tracer.derived(
                        "recycling.query",
                        end.duration_since(start),
                        root,
                        (first + i) as u64,
                    );
                    self.out
                        .account(&output.stats, tracer, span, (first + i) as u64);
                }
            }
        }

        if !timed {
            return;
        }
        self.out.timed += end.duration_since(start);
        match answers {
            Ok(answers) => {
                self.out.queries += window as u64;
                if self.samples.len() < self.samples.capacity() {
                    self.samples.push(nanos(start, end));
                }
                for (i, exports) in answers.iter().enumerate() {
                    if (first + i).is_multiple_of(CHECK_EVERY) && self.out.answers.len() < CHECK_MAX
                    {
                        self.out.answers.push((first + i, Answer::of(exports)));
                    }
                }
            }
            Err(e) => {
                if self.out.errors == 0 {
                    eprintln!("# operation {first} failed: {e}");
                }
                self.out.errors += window as u64;
            }
        }
    }

    fn refresh(&mut self, timed: bool, tracer: Option<&mut Tracer>) {
        let seq = self.seq;
        self.seq += 1;
        let Door::InProcess(session) = &mut self.door else {
            unreachable!("refresh blocks are committed in-process");
        };
        let result = self.refresher.commit_next(&self.system.db, session);
        if !timed {
            return;
        }
        match result {
            Ok((start, end)) => {
                if let Some(tracer) = tracer {
                    tracer.span("recycling.commit", start, end, None, seq as u64);
                }
                self.out.timed += end.duration_since(start);
                self.out.commits += 1;
                self.commit_samples.push(nanos(start, end));
            }
            Err(e) => {
                eprintln!("# refresh block at operation {seq} failed: {e}");
                self.out.errors += 1;
            }
        }
    }
}

impl RepOutcome {
    /// Book one traced query's interpreter statistics: the time inside
    /// executed instructions becomes a derived child of `parent`.
    fn account(
        &mut self,
        stats: &rmal::ExecStats,
        tracer: &mut Tracer,
        parent: SpanId,
        request: u64,
    ) {
        let executed: Duration = stats.profile.iter().map(|p| p.cpu).sum();
        tracer.derived("interp.executed", executed, parent, request);
        self.instrs += stats.instrs as u64;
        self.marked += stats.marked as u64;
        self.result_bytes += stats
            .profile
            .iter()
            .filter(|p| !p.reused)
            .map(|p| p.result_bytes as u64)
            .sum::<u64>();
    }
}

/// Time the protocol layer on the frames one query really produced:
/// encode and decode of its request and of its reply, each a derived
/// child of the round trip. Returns the bytes the two frames put on the
/// wire.
fn replicate_wire(
    tracer: &mut Tracer,
    root: SpanId,
    request: u64,
    template: &str,
    params: &[Value],
    exports: &[(String, Value)],
) -> u64 {
    let mut wire = 0;
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        tracer.derived(name, start.elapsed(), root, request);
    };
    let req = Request::Query {
        id: request + 1,
        template: template.to_string(),
        params: params.to_vec(),
        deadline_ms: 0,
    };
    let resp = Response::Query {
        id: request + 1,
        result: QueryResult {
            exports: exports.to_vec(),
            ..QueryResult::default()
        },
    };
    let mut frame = Vec::new();
    timed("protocol.encode_request", &mut || {
        frame = encode_request(&req).unwrap_or_default();
    });
    let mut decoder = FrameDecoder::new();
    let header = (frame.len() as u32).to_le_bytes();
    timed("protocol.decode_request", &mut || {
        let _ = decoder.push(&header);
        let _ = decoder.push(&frame);
        let decoded = decoder.next_frame().map(|f| decode_request(&f));
        std::hint::black_box(&decoded);
    });
    wire += 4 + frame.len() as u64;
    timed("protocol.encode_response", &mut || {
        frame = encode_response(&resp).unwrap_or_default();
    });
    timed("protocol.decode_response", &mut || {
        std::hint::black_box(&decode_response(&frame));
    });
    wire + 4 + frame.len() as u64
}

/// Run one repetition of `workload` on a fresh database.
pub fn run_rep(
    config: &RunConfig,
    inputs: &Inputs,
    budget: Budget,
    samples: &mut Vec<u32>,
    mut tracer: Option<&mut Tracer>,
) -> Result<RepOutcome, String> {
    let workload = config.workload;
    let script = &inputs.script;
    let mut scratch = Tracer::new();
    let system = build_system(
        workload,
        &config.sizes,
        &config.knobs,
        inputs,
        false,
        &mut scratch,
    )?;
    let warm_in_process = |system: &System| {
        let mut session = system.db.session();
        for op in &script.ops {
            if let Op::Query { template, params } = op {
                let _ = session.query(&system.templates[*template], params);
            }
        }
        session
    };
    let twin = if workload.over_tcp() {
        warm_in_process(&system);
        match tracer {
            Some(_) => {
                let twin = build_system(
                    Workload::SkyHot,
                    &config.sizes,
                    &config.knobs,
                    inputs,
                    false,
                    &mut scratch,
                )?;
                let session = warm_in_process(&twin);
                Some((twin, session))
            }
            None => None,
        }
    } else {
        None
    };
    let door = Door::open(&system).map_err(|e| format!("connect: {e}"))?;
    samples.clear();
    let mut rep = Rep {
        workload,
        script,
        system,
        door,
        twin,
        refresher: Refresher::new(script.refresh_seed),
        seq: 0,
        samples,
        commit_samples: Vec::new(),
        out: RepOutcome {
            traced: tracer.is_some(),
            ..RepOutcome::default()
        },
    };

    let warmup = workload.warmup_ops(script);
    while rep.seq < warmup {
        rep.step(false, None);
    }
    rep.out.before = rep.system.db.stats();
    let chunk = workload.chunk();
    let mut chunks = 0;
    loop {
        let end = rep.seq + chunk;
        while rep.seq < end {
            rep.step(true, tracer.as_deref_mut());
        }
        chunks += 1;
        let done = rep.out.timed >= budget.time || chunks >= budget.chunks;
        if done {
            break;
        }
    }
    rep.out.after = rep.system.db.stats();
    rep.out.pool_bytes = rep.system.db.pool().bytes();

    // sorted in place: a copy would make peak RSS grow with the number
    // of samples, i.e. with the speed of the build under test
    let mut out = rep.out;
    let micros = |ns: u32| ns as f64 / 1e3;
    rep.samples.sort_unstable();
    out.p50_us = percentile(rep.samples, 50.0).map(micros);
    out.p99_us = percentile(rep.samples, 99.0).map(micros);
    out.latency_samples = rep.samples.len();
    rep.commit_samples.sort_unstable();
    out.commit_p50_us = percentile(&rep.commit_samples, 50.0).map(micros);

    rep.door.close();
    if let Some(server) = &rep.system.server {
        let c = server.counters();
        out.server_faults = [c.worker_panics(), c.accept_errors(), c.read_timeouts()];
    }
    rep.system.shutdown();
    Ok(out)
}

/// Replay the sampled answers on a naive (recycling-off) database and
/// count those that differ. `answers` holds each repetition's
/// `(sequence number, answer)` list.
///
/// With a tracer, the naive queries are bracketed too (`naive.query`,
/// with the executed instructions as a derived child): with no hook in
/// the way, what is left of a naive query after its instructions is the
/// interpreter's own dispatch cost. Returns the mismatches and the number
/// of instructions the naive queries interpreted.
pub fn check_answers(
    config: &RunConfig,
    inputs: &Inputs,
    answers: &[&[(usize, Answer)]],
    mut tracer: Option<&mut Tracer>,
) -> Result<(u64, u64), String> {
    let script = &inputs.script;
    let naive = build_system(
        config.workload,
        &config.sizes,
        &config.knobs,
        inputs,
        true,
        &mut Tracer::new(),
    )?;
    let mut session = naive.db.session();
    let mut refresher = Refresher::new(script.refresh_seed);
    // a script without commits gives the same answer every time round
    let stateless = !script.has_commits();
    let mut wanted: BTreeMap<usize, Vec<&Answer>> = BTreeMap::new();
    for (seq, answer) in answers.iter().copied().flatten() {
        wanted.entry(*seq).or_default().push(answer);
    }
    let mut known: HashMap<usize, Answer> = HashMap::new();
    let mut cursor = 0;
    let mut mismatches = 0;
    let mut instrs = 0;
    for (seq, seen) in wanted {
        while !stateless && cursor < seq {
            if script.ops[cursor % script.ops.len()] == Op::Refresh {
                refresher
                    .commit_next(&naive.db, &mut session)
                    .map_err(|e| format!("naive refresh: {e}"))?;
            }
            cursor += 1;
        }
        let key = if stateless {
            seq % script.ops.len()
        } else {
            seq
        };
        let expected = match known.entry(key) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(unknown) => {
                let Op::Query { template, params } = &script.ops[seq % script.ops.len()] else {
                    return Err(format!("operation {seq} was sampled but is no query"));
                };
                let start = Instant::now();
                let output = session
                    .query_output(&naive.templates[*template], params)
                    .map_err(|e| format!("naive query {seq}: {e}"))?;
                let end = Instant::now();
                if let Some(tracer) = tracer.as_deref_mut() {
                    let span = tracer.span("naive.query", start, end, None, seq as u64);
                    let executed = output.stats.profile.iter().map(|p| p.cpu).sum();
                    tracer.derived("naive.executed", executed, span, seq as u64);
                }
                instrs += output.stats.instrs as u64;
                unknown.insert(Answer::of(&output.exports))
            }
        };
        mismatches += seen.iter().filter(|a| !a.agrees(expected)).count() as u64;
    }
    Ok((mismatches, instrs))
}

/// The result of a run, as the contract's last line reports it.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth reading: per-repetition figures, quartiles,
    /// sizes, wall time.
    pub detail: Json,
}

impl RunResult {
    /// The contract's result line.
    pub fn line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }

    /// 0 when every answer was right and every metric could be computed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct)
    }
}

fn spread(values: &[f64]) -> Json {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    Json::obj([
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "reps",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

/// Run `config.workload` once, end to end.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let wall = Instant::now();
    let workload = config.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = crate::affinity::pin_to_one_cpu();
    let mut tracer = Tracer::new();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take()); // one data set alive at a time
        let (made, took) = setup(
            workload,
            &config.sizes,
            &config.knobs,
            config.seed,
            &mut tracer,
        )?;
        setups.push(took.as_secs_f64());
        inputs = Some(made);
    }
    let inputs = inputs.expect("SETUPS > 0");

    let mut samples = vec![0u32; SAMPLE_CAP];
    samples.fill(1); // touch every page now, not as queries arrive
    let budget = Budget {
        time: Duration::from_secs_f64(config.seconds / REPS as f64),
        chunks: usize::MAX,
    };
    let mut reps = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        // every other repetition of a traced run goes untraced: those are
        // the reference the tracing overhead is measured against
        let traced = config.trace && rep % 2 == 1;
        reps.push(run_rep(
            config,
            &inputs,
            budget,
            &mut samples,
            traced.then_some(&mut tracer),
        )?);
    }
    let peak_rss = peak_rss_mib();

    let answers: Vec<&[(usize, Answer)]> = reps.iter().map(|r| r.answers.as_slice()).collect();
    let (mismatches, naive_instrs) = check_answers(
        config,
        &inputs,
        &answers,
        config.trace.then_some(&mut tracer),
    )?;
    let checked: usize = answers.iter().map(|a| a.len()).sum();

    let attempted: u64 = reps.iter().map(|r| r.queries + r.commits + r.errors).sum();
    let errors: u64 = reps.iter().map(|r| r.errors).sum();
    let failed = (errors + mismatches).min(attempted);
    let mut problems: Vec<String> = Vec::new();
    if failed > 0 {
        problems.push(format!(
            "{errors} operations failed, {mismatches} answers differ"
        ));
    }
    if checked == 0 {
        problems.push("no answer was checked".into());
    }

    let qps: Vec<f64> = reps.iter().map(RepOutcome::qps).collect();
    let mut detail = vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds)),
        ("trace", Json::Bool(config.trace)),
        ("reps", Json::Num(REPS as f64)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "pinned_to_cpu",
            cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("throughput_qps", spread(&qps)),
        (
            "timed_queries",
            Json::Arr(reps.iter().map(|r| Json::Num(r.queries as f64)).collect()),
        ),
        ("answers_checked", Json::Num(checked as f64)),
        ("setup_s", spread(&setups)),
    ];

    let metrics = if config.trace {
        let (metrics, split) = layer_metrics(workload, &reps, naive_instrs, &tracer, &mut problems);
        detail.push(("split", split));
        write_trace(workload, &tracer)?;
        metrics
    } else {
        let all = |f: fn(&RepOutcome) -> Option<f64>| -> Option<Vec<f64>> {
            reps.iter().map(f).collect()
        };
        let p50 = all(|r| r.p50_us);
        let p99 = all(|r| r.p99_us);
        let samples: usize = reps.iter().map(|r| r.latency_samples).sum();
        if !supports_p99(samples) {
            problems.push(format!("{samples} latency samples are too few for a p99"));
        }
        let p50 = p50.unwrap_or_default();
        let p99 = p99.unwrap_or_default();
        detail.push(("query_p50_us", spread(&p50)));
        detail.push(("query_p99_us", spread(&p99)));
        let commit: Vec<f64> = reps.iter().filter_map(|r| r.commit_p50_us).collect();
        if !commit.is_empty() {
            detail.push(("commit_p50_us", spread(&commit)));
        }
        vec![
            ("throughput_qps", median(&qps), "1/s"),
            ("query_p50_us", median(&p50), "us"),
            ("query_p99_us", median(&p99), "us"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB"),
        ]
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        problems.push(format!("metric {name} could not be measured"));
    }
    detail.push(("wall_s", Json::Num(wall.elapsed().as_secs_f64())));
    detail.push((
        "problems",
        Json::Arr(problems.iter().map(Json::str).collect()),
    ));
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        detail: Json::obj(detail),
    })
}

/// Per-layer metrics of a traced run, from the repetitions that recorded
/// spans. Also returns, for the run's detail, how the query time was split
/// (µs per query) and which layer had the largest share.
fn layer_metrics(
    workload: Workload,
    reps: &[RepOutcome],
    naive_instrs: u64,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> (Vec<Metric>, Json) {
    let traced: Vec<&RepOutcome> = reps.iter().filter(|r| r.traced).collect();
    let sum = |f: fn(&RepOutcome) -> u64| traced.iter().map(|r| f(r)).sum::<u64>() as f64;
    let delta = |f: fn(&RecyclerStats) -> u64| -> f64 {
        traced
            .iter()
            .map(|r| f(&r.after).saturating_sub(f(&r.before)))
            .sum::<u64>() as f64
    };
    let queries = sum(|r| r.queries).max(1.0);
    let commits = sum(|r| r.commits);
    let per_commit = |n: f64| if commits > 0.0 { n / commits } else { 0.0 };
    let us = |d: Duration| d.as_secs_f64() * 1e6;

    // The product's own gauge of probe + admission time, hits and misses
    // alike.
    let overhead: Duration = traced
        .iter()
        .map(|r| r.after.overhead.saturating_sub(r.before.overhead))
        .sum();
    let monitored = delta(|s| s.monitored);
    let hits = delta(|s| s.hits);

    // Split the query time (in-process: the bracketed call; over TCP: the
    // same call on the twin) into layers that add up to it.
    // `interp.executed` brackets every instruction that ran *with* the
    // recycler's miss path (probe, then admission) around it, so it
    // overlaps the recycler's gauge by the miss-path part of the gauge.
    // What is left of the query is the interpreter's dispatch plus the
    // recycler's hit path; the dispatch cost per instruction is known from
    // the naive queries, where nothing else is left. That fixes the hit
    // path, hence the miss path, hence the operators' own time.
    let query = tracer.total("recycling.query");
    let executed = tracer.total("interp.executed").total;
    let unexecuted = query.self_time();
    if unexecuted.is_none() || overhead > query.total {
        problems.push(format!(
            "negative remainder: query spans {:?}, executed {:?}, recycler {:?}",
            query.total, executed, overhead
        ));
    }
    let unexecuted = unexecuted.unwrap_or_default();
    let dispatch_per_instr = tracer
        .total("naive.query")
        .self_time()
        .unwrap_or_default()
        .div_f64(naive_instrs.max(1) as f64);
    let dispatch = dispatch_per_instr
        .mul_f64(sum(|r| r.instrs))
        .min(unexecuted);
    let hit_path = unexecuted - dispatch;
    let miss_path = overhead.saturating_sub(hit_path).min(executed);
    let rbat = executed - miss_path;
    // equals `dispatch` unless the gauge and the spans disagree on how
    // long the hit path took; the disagreement then stays with `rmal`
    let rmal = query.total.saturating_sub(rbat + overhead);

    let commit = tracer.total("recycling.commit");
    let protocol_parts = [
        "protocol.encode_request",
        "protocol.decode_request",
        "protocol.encode_response",
        "protocol.decode_response",
    ]
    .map(|name| tracer.total(name).total);
    let protocol: Duration = protocol_parts.iter().sum();
    let roundtrip = tracer.total("client.roundtrip");
    let transport = roundtrip.self_time();
    if transport.is_none() {
        problems.push(format!(
            "negative remainder: round trips {:?}, their parts {:?}",
            roundtrip.total, roundtrip.children
        ));
    }
    let transport = transport.unwrap_or_default();
    let root = if workload.over_tcp() {
        roundtrip.total
    } else {
        query.total + commit.total
    };
    let share = |d: Duration| d.as_secs_f64() / root.as_secs_f64();
    let shares = [
        ("recycler", share(overhead)),
        ("rbat", share(rbat)),
        ("rmal", share(rmal)),
        ("recycling_commit", share(commit.total)),
        ("protocol", share(protocol)),
        ("server", share(transport)),
    ];
    let total: f64 = shares.iter().map(|(_, s)| s).sum();
    if (total - 1.0).abs() > 1e-6 {
        problems.push(format!("layer shares sum to {total}, not 1"));
    }
    let largest = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(name, s)| format!("{name} {:.1}%", 100.0 * s))
        .unwrap_or_default();

    let qps_of = |traced: bool| -> f64 {
        let qps: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(RepOutcome::qps)
            .collect();
        median(&qps)
    };
    let (untraced_qps, traced_qps) = (qps_of(false), qps_of(true));
    let faults = |i: usize| traced.iter().map(|r| r.server_faults[i]).sum::<u64>() as f64;
    let spans: u64 = tracer.totals().map(|(_, t)| t.count).sum();
    let setups = tracer.total("recycling.prepare").count.max(1) as f64;
    let per_setup = |name: &str| tracer.total(name).total.as_secs_f64() / setups;
    let commit_p50: Vec<f64> = traced.iter().filter_map(|r| r.commit_p50_us).collect();
    let pool_bytes: Vec<f64> = traced.iter().map(|r| r.pool_bytes as f64).collect();

    let hit_ratio = if monitored > 0.0 {
        hits / monitored
    } else {
        0.0
    };
    let per_query = |d: Duration| us(d) / queries;
    let metrics = vec![
        ("recycler.overhead_us_per_query", per_query(overhead), "us"),
        ("recycler.hit_ratio", hit_ratio, "ratio"),
        (
            "recycler.admissions_per_query",
            delta(|s| s.admissions) / queries,
            "1/query",
        ),
        (
            "recycler.evictions_per_query",
            delta(|s| s.evictions) / queries,
            "1/query",
        ),
        (
            "recycler.inline_evictions_per_query",
            delta(|s| s.inline_evictions) / queries,
            "1/query",
        ),
        (
            "recycler.subsumed_per_query",
            delta(|s| s.subsumed) / queries,
            "1/query",
        ),
        (
            "recycler.invalidated_per_commit",
            per_commit(delta(|s| s.invalidated)),
            "1/commit",
        ),
        (
            "recycler.propagated_per_commit",
            per_commit(delta(|s| s.propagated)),
            "1/commit",
        ),
        ("recycler.pool_bytes", median(&pool_bytes), "B"),
        ("rbat.operator_cpu_us_per_query", per_query(rbat), "us"),
        (
            "rbat.result_bytes_per_query",
            sum(|r| r.result_bytes) / queries,
            "B",
        ),
        ("rmal.interp_self_us_per_query", per_query(rmal), "us"),
        (
            "rmal.instrs_per_query",
            sum(|r| r.instrs) / queries,
            "1/query",
        ),
        (
            "rmal.marked_per_query",
            sum(|r| r.marked) / queries,
            "1/query",
        ),
        (
            "recycling.prepare_us",
            per_setup("recycling.prepare") * 1e6,
            "us",
        ),
        ("recycling.commit_us", median(&commit_p50), "us"),
        (
            "protocol.encode_request_us",
            per_query(protocol_parts[0]),
            "us",
        ),
        (
            "protocol.decode_request_us",
            per_query(protocol_parts[1]),
            "us",
        ),
        (
            "protocol.encode_response_us",
            per_query(protocol_parts[2]),
            "us",
        ),
        (
            "protocol.decode_response_us",
            per_query(protocol_parts[3]),
            "us",
        ),
        (
            "protocol.bytes_per_query",
            sum(|r| r.wire_bytes) / queries,
            "B",
        ),
        ("server.transport_self_us", per_query(transport), "us"),
        ("server.worker_panics", faults(0), "count"),
        ("server.accept_errors", faults(1), "count"),
        ("server.read_timeouts", faults(2), "count"),
        ("tpch.gen_s", per_setup("tpch.gen"), "s"),
        ("skyserver.gen_s", per_setup("skyserver.gen"), "s"),
        ("share.recycler", shares[0].1, "ratio"),
        ("share.rbat", shares[1].1, "ratio"),
        ("share.rmal", shares[2].1, "ratio"),
        ("share.recycling_commit", shares[3].1, "ratio"),
        ("share.protocol", shares[4].1, "ratio"),
        ("share.server", shares[5].1, "ratio"),
        (
            "trace.overhead_share",
            1.0 - traced_qps / untraced_qps,
            "ratio",
        ),
        ("trace.untraced_qps", untraced_qps, "1/s"),
        ("trace.traced_qps", traced_qps, "1/s"),
        ("trace.spans", spans as f64, "count"),
        ("trace.root_us_per_query", per_query(root), "us"),
    ];
    let per_query = |d: Duration| Json::Num(per_query(d));
    let split = Json::obj([
        ("largest_share", Json::str(largest)),
        ("query_us", per_query(query.total)),
        ("executed_instructions_us", per_query(executed)),
        ("recycler_gauge_us", per_query(overhead)),
        ("dispatch_us", per_query(dispatch)),
        ("hit_path_us", per_query(hit_path)),
        ("miss_path_us", per_query(miss_path)),
    ]);
    (metrics, split)
}

fn write_trace(workload: Workload, tracer: &Tracer) -> Result<(), String> {
    let dir = crate::workload::out_dir();
    let path = dir.join(format!("trace-{}.jsonl", workload.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::generate_inputs;

    fn config(workload: Workload, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            sizes: Sizes::TINY,
            knobs: Knobs::default(),
            seed: 3,
            seconds: 1.4,
            trace,
        }
    }

    fn chunks(chunks: usize) -> Budget {
        Budget {
            time: Duration::MAX,
            chunks,
        }
    }

    /// One client and no collector: the recycler's counts are a function
    /// of the script alone, so two repetitions agree to the unit.
    #[test]
    fn counts_repeat_exactly_across_repetitions() {
        for workload in [Workload::SkyHot, Workload::TpchMix] {
            let config = config(workload, false);
            let inputs = generate_inputs(workload, &config.sizes, config.seed, &mut Tracer::new());
            let mut samples = Vec::with_capacity(1 << 12);
            let mut counts = Vec::new();
            for _ in 0..2 {
                let rep = run_rep(&config, &inputs, chunks(2), &mut samples, None).unwrap();
                assert_eq!(rep.errors, 0);
                let delta = |f: fn(&RecyclerStats) -> u64| f(&rep.after) - f(&rep.before);
                counts.push([
                    rep.queries,
                    delta(|s| s.monitored),
                    delta(|s| s.hits),
                    delta(|s| s.admissions),
                    delta(|s| s.evictions),
                ]);
            }
            assert_eq!(counts[0], counts[1], "{}", workload.name());
            assert_eq!(counts[0][0], 2 * workload.chunk() as u64);
            assert!(counts[0][2] > 0, "{}: no hits", workload.name());
        }
        // the TPC-H pool is smaller than what the script admits
        let config = config(Workload::TpchMix, false);
        let inputs = generate_inputs(config.workload, &config.sizes, 3, &mut Tracer::new());
        let rep = run_rep(&config, &inputs, chunks(2), &mut Vec::new(), None).unwrap();
        assert!(rep.after.evictions > 0, "the pool never filled");
    }

    /// The check has teeth: the run's own answers pass, a corrupted one
    /// is counted, and a run with a wrong answer exits non-zero.
    #[test]
    fn a_corrupted_answer_fails_the_run() {
        let config = config(Workload::TpchRefresh, false);
        let inputs = generate_inputs(config.workload, &config.sizes, 3, &mut Tracer::new());
        let mut rep = run_rep(&config, &inputs, chunks(8), &mut Vec::new(), None).unwrap();
        assert!(rep.commits > 0 && rep.answers.len() >= 2);
        let check = |answers: &[(usize, Answer)]| {
            check_answers(&config, &inputs, &[answers], None).unwrap().0
        };
        assert_eq!(check(&rep.answers), 0);

        rep.answers[0].1.exact ^= 1;
        assert_eq!(check(&rep.answers), 1);
        rep.answers[0].1.exact ^= 1;

        // a float may differ in its last bits, not in its sixth digit
        let (i, _) = rep
            .answers
            .iter()
            .enumerate()
            .find(|(_, (_, a))| a.floats.iter().any(|x| *x != 0.0))
            .expect("some answer has a float in it");
        let j = rep.answers[i]
            .1
            .floats
            .iter()
            .position(|x| *x != 0.0)
            .unwrap();
        rep.answers[i].1.floats[j] *= 1.0 + 1e-13;
        assert_eq!(check(&rep.answers), 0);
        rep.answers[i].1.floats[j] *= 1.0 + 1e-6;
        assert_eq!(check(&rep.answers), 1);

        let result = RunResult {
            correct: false,
            attempted: 10,
            failed: 1,
            metrics: Vec::new(),
            detail: Json::Null,
        };
        assert_ne!(result.exit_code(), 0);
    }

    /// Every workload runs end to end, traced and untraced, with every
    /// answer right, every metric of `BENCHMARK.json` reported, and the
    /// layer shares adding up (a negative remainder is a `problem`).
    #[test]
    fn every_workload_runs_and_reports_every_metric() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let result = run(&config(workload, trace)).unwrap();
                let problems = result.detail.get("problems").cloned();
                // an unoptimised build may be too slow for a p99's worth
                // of samples in 1.4 s; nothing else may go wrong
                let tolerated =
                    |p: &Json| matches!(p, Json::Str(s) if s.contains("too few for a p99"));
                assert!(
                    matches!(&problems, Some(Json::Arr(ps)) if ps.iter().all(tolerated)),
                    "{} trace={trace}: {problems:?}",
                    workload.name()
                );
                assert_eq!(result.failed, 0);
                // names, units and order are BENCHMARK.json's
                let reported: Vec<(String, Json)> = result
                    .metrics
                    .iter()
                    .map(|(name, _, unit)| (name.to_string(), Json::str(*unit)))
                    .collect();
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(reported, declared(key), "{key}");
            }
        }
    }

    /// `(name, unit)` of every entry of a list in the repo's `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, Json)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no list `{key}`");
        };
        items
            .iter()
            .map(|item| match item.get("name") {
                Some(Json::Str(name)) => (
                    name.clone(),
                    item.get("unit").cloned().unwrap_or(Json::Null),
                ),
                other => panic!("{key}: bad name {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_workloads_of_the_code() {
        let names: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }
}
