//! One experiment per table/figure of the paper's evaluation.
//!
//! Each function regenerates the corresponding artefact: same rows, same
//! series, scaled to the configured database size. Absolute numbers differ
//! from the paper (different machine, different scale); the *shapes* —
//! who wins, by what factor, where the crossovers sit — are the
//! reproduction target (see EXPERIMENTS.md).

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rbat::Catalog;
use recycler::{AdmissionPolicy, EvictionPolicy, RecyclerConfig};
use recycling::{DatabaseBuilder, Update};
use rmal::Program;

use crate::concurrent::{partition_streams, pool_scaling, run_concurrent, update_mixed};
use crate::driver::{keepall, run_naive, run_recycled, BatchOutcome, BenchItem};
use crate::tables::{fmt_bytes, fmt_dur, fmt_ratio, TextTable};

/// Experiment environment: database scales and seeds, overridable through
/// `REPRO_SF`, `REPRO_SKY`, `REPRO_SEED`.
#[derive(Debug, Clone, Copy)]
pub struct ExpEnv {
    /// TPC-H scale factor.
    pub sf: f64,
    /// SkyServer object count.
    pub sky_objects: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ExpEnv {
    /// Read overrides from the environment.
    pub fn from_env() -> ExpEnv {
        let get = |k: &str| std::env::var(k).ok();
        ExpEnv {
            sf: get("REPRO_SF").and_then(|v| v.parse().ok()).unwrap_or(0.01),
            sky_objects: get("REPRO_SKY")
                .and_then(|v| v.parse().ok())
                .unwrap_or(40_000),
            seed: get("REPRO_SEED").and_then(|v| v.parse().ok()).unwrap_or(42),
        }
    }

    /// Generate the TPC-H catalog at this scale.
    pub fn tpch(&self) -> Catalog {
        tpch::generate(tpch::TpchScale::new(self.sf))
    }

    /// Generate the sky catalog at this scale.
    pub fn sky(&self) -> Catalog {
        skyserver::generate(skyserver::SkyScale::new(self.sky_objects))
    }
}

fn to_bench_items(items: &[tpch::BatchItem]) -> Vec<BenchItem> {
    items
        .iter()
        .map(|i| BenchItem {
            query_idx: i.query_idx,
            label: i.query_no,
            params: i.params.clone(),
        })
        .collect()
}

fn tpch_templates(qs: &[tpch::TpchQuery]) -> Vec<Program> {
    qs.iter().map(|q| q.template.clone()).collect()
}

fn count_marked_binds(engine_cat: &Catalog, template: &Program) -> (usize, usize) {
    // prepare a copy with the full pipeline incl. marking to count marked
    // instructions and marked binds
    let db = DatabaseBuilder::new(engine_cat.clone()).build();
    let t = db.prepare(template.clone());
    let marked = t.marked_count();
    let binds = t
        .instrs
        .iter()
        .filter(|i| i.recycle && matches!(i.op, rmal::Opcode::Bind | rmal::Opcode::BindIdx))
        .count();
    (marked, binds)
}

/// Table II: characteristics of the TPC-H queries — marked instructions
/// (binds excluded), intra- and inter-query reuse percentages, total time
/// and realised savings.
pub fn table2(env: &ExpEnv) -> String {
    let cat = env.tpch();
    let mut out = TextTable::new(&[
        "Query", "#", "Intra %", "Inter %", "Total", "Pot.", "Local", "Glob.",
    ]);
    for qno in 1..=22u8 {
        let (qs, items) = tpch::query_batch(qno, 2, env.seed + qno as u64);
        let templates = tpch_templates(&qs);
        let bitems = to_bench_items(&items);
        let (marked, binds) = count_marked_binds(&cat, &templates[0]);
        let useful = marked.saturating_sub(binds).max(1);

        let naive = run_naive(cat.clone(), &templates, &bitems[..1]);
        let (rec, _engine) = run_recycled(cat.clone(), &templates, &bitems, keepall(), false);
        let a = &rec.runs[0];
        let b = &rec.runs[1];
        let intra = 100.0 * a.local_hits as f64 / useful as f64;
        let inter = 100.0 * (b.global_hits.saturating_sub(binds as u64)) as f64 / useful as f64;
        // potential: time in monitored instructions of the first instance
        let pot = a.elapsed; // full first execution ≈ monitored dominate
        out.row(vec![
            format!("Q{qno}"),
            useful.to_string(),
            format!("{intra:.1}"),
            format!("{inter:.1}"),
            fmt_dur(naive.runs[0].elapsed),
            fmt_dur(pot),
            fmt_dur(a.saved),
            fmt_dur(b.saved),
        ]);
    }
    format!("Table II — TPC-H query characteristics\n{}", out.render())
}

/// The per-instance profile of Figures 4 and 5: hit ratio, naive vs
/// recycler time, total vs reused pool memory, for one query over
/// `instances` instances.
pub fn profile_query(env: &ExpEnv, qno: u8, instances: usize) -> String {
    let cat = env.tpch();
    let (qs, items) = tpch::query_batch(qno, instances, env.seed);
    let templates = tpch_templates(&qs);
    let bitems = to_bench_items(&items);
    let naive = run_naive(cat.clone(), &templates, &bitems);
    let (rec, _) = run_recycled(cat, &templates, &bitems, keepall(), false);
    let mut out = TextTable::new(&[
        "inst",
        "hit-ratio",
        "naive",
        "recycler",
        "RP-mem",
        "RP-reused",
    ]);
    for i in 0..instances {
        let r = &rec.runs[i];
        let ratio = if r.monitored == 0 {
            0.0
        } else {
            r.hits as f64 / r.monitored as f64
        };
        out.row(vec![
            (i + 1).to_string(),
            format!("{ratio:.2}"),
            fmt_dur(naive.runs[i].elapsed),
            fmt_dur(r.elapsed),
            fmt_bytes(r.pool_bytes),
            fmt_bytes(r.reused_bytes),
        ]);
    }
    format!(
        "Q{qno} profile over {instances} instances\n{}",
        out.render()
    )
}

/// Figure 4: intra-query (Q11) and inter-query (Q18) commonality profiles.
pub fn fig4(env: &ExpEnv) -> String {
    format!(
        "Figure 4a — {}\nFigure 4b — {}",
        profile_query(env, 11, 10),
        profile_query(env, 18, 10)
    )
}

/// Figure 5: mixed commonality (Q19) and the limited-overlap counter
/// example (Q14).
pub fn fig5(env: &ExpEnv) -> String {
    format!(
        "Figure 5a — {}\nFigure 5b — {}",
        profile_query(env, 19, 10),
        profile_query(env, 14, 10)
    )
}

/// Figure 6: average per-instance time — naive, recycler-first,
/// recycler-average — for Q11, Q18, Q19, Q14.
pub fn fig6(env: &ExpEnv) -> String {
    let cat = env.tpch();
    let mut out = TextTable::new(&["Query", "Naive", "Recycle first", "Recycle avg"]);
    for qno in [11u8, 18, 19, 14] {
        let (qs, items) = tpch::query_batch(qno, 10, env.seed);
        let templates = tpch_templates(&qs);
        let bitems = to_bench_items(&items);
        let naive = run_naive(cat.clone(), &templates, &bitems);
        let (rec, _) = run_recycled(cat.clone(), &templates, &bitems, keepall(), false);
        let navg = naive.total / 10;
        let first = rec.runs[0].elapsed;
        let rest: Duration = rec.runs[1..].iter().map(|r| r.elapsed).sum();
        out.row(vec![
            format!("Q{qno}"),
            fmt_dur(navg),
            fmt_dur(first),
            fmt_dur(rest / 9),
        ]);
    }
    format!(
        "Figure 6 — recycler effect on performance\n{}",
        out.render()
    )
}

/// Figure 7: the CREDIT admission policy vs the number of credits —
/// hit ratio relative to KEEPALL, reused-memory % and reused-entries %.
pub fn fig7(env: &ExpEnv) -> String {
    let cat = env.tpch();
    let mut out = TextTable::new(&[
        "Query",
        "credits",
        "hit/keepall",
        "reused-mem %",
        "reused-RP %",
    ]);
    for qno in [11u8, 18, 19] {
        let (qs, items) = tpch::query_batch(qno, 10, env.seed);
        let templates = tpch_templates(&qs);
        let bitems = to_bench_items(&items);
        let (keepall, _) = run_recycled(cat.clone(), &templates, &bitems, keepall(), false);
        let base_hits = keepall.hits().max(1);
        for k in [2u32, 4, 6, 8, 10] {
            let cfg = RecyclerConfig::default().admission(AdmissionPolicy::Credit(k));
            let (run, engine) = run_recycled(cat.clone(), &templates, &bitems, cfg, false);
            let snap = engine.snapshot();
            out.row(vec![
                format!("Q{qno}"),
                k.to_string(),
                fmt_ratio(run.hits() as f64 / base_hits as f64),
                format!("{:.0}", snap.reused_memory_pct()),
                format!("{:.0}", snap.reused_entries_pct()),
            ]);
        }
    }
    format!(
        "Figure 7 — credit admission vs resource utilisation\n{}",
        out.render()
    )
}

fn mixed_items(env: &ExpEnv) -> (Vec<Program>, Vec<BenchItem>) {
    let (qs, items) = tpch::mixed_batch(&tpch::workload::MIXED_QUERIES, 20, env.seed);
    (tpch_templates(&qs), to_bench_items(&items))
}

/// Figures 8 and 9: admission policies on the mixed 200-query workload —
/// total memory, reused %, hit ratio vs KEEPALL and execution time, as the
/// credit parameter grows; the reuse-paced default has no parameter and
/// one row.
pub fn fig8_9(env: &ExpEnv) -> String {
    let cat = env.tpch();
    let (templates, items) = mixed_items(env);
    let naive = run_naive(cat.clone(), &templates, &items);
    let (keepall, ke) = run_recycled(cat.clone(), &templates, &items, keepall(), false);
    let ksnap = ke.snapshot();
    let base_hits = keepall.hits().max(1);
    let mut out = TextTable::new(&[
        "policy",
        "credits",
        "total-mem",
        "reused-mem %",
        "reused-RP %",
        "hit/keepall",
        "time",
    ]);
    out.row(vec![
        "keepall".into(),
        "-".into(),
        fmt_bytes(ksnap.bytes),
        format!("{:.0}", ksnap.reused_memory_pct()),
        format!("{:.0}", ksnap.reused_entries_pct()),
        "1.000".into(),
        fmt_dur(keepall.total),
    ]);
    let admission_row = |name: &str, k: &str, adm: AdmissionPolicy| {
        let cfg = RecyclerConfig::default().admission(adm);
        let (run, engine) = run_recycled(cat.clone(), &templates, &items, cfg, false);
        let snap = engine.snapshot();
        vec![
            name.into(),
            k.into(),
            fmt_bytes(snap.bytes),
            format!("{:.0}", snap.reused_memory_pct()),
            format!("{:.0}", snap.reused_entries_pct()),
            fmt_ratio(run.hits() as f64 / base_hits as f64),
            fmt_dur(run.total),
        ]
    };
    out.row(admission_row("paced", "-", AdmissionPolicy::Paced));
    for k in [3u32, 5, 7, 10] {
        for (name, adm) in [
            ("credit", AdmissionPolicy::Credit(k)),
            ("adapt", AdmissionPolicy::Adaptive(k)),
        ] {
            out.row(admission_row(name, &k.to_string(), adm));
        }
    }
    format!(
        "Figures 8/9 — admission policies on the 200-query mixed batch (naive total {})\n{}",
        fmt_dur(naive.total),
        out.render()
    )
}

/// Figures 10 and 11: eviction policies under entry-count and memory
/// limits — final hit ratios and time relative to naive.
pub fn fig10_11(env: &ExpEnv) -> String {
    let cat = env.tpch();
    let (templates, items) = mixed_items(env);
    let naive = run_naive(cat.clone(), &templates, &items);
    let (keepall, ke) = run_recycled(cat.clone(), &templates, &items, keepall(), false);
    let total_entries = ke.pool().len().max(1);
    let total_bytes = ke.pool().bytes().max(1);
    let _ = keepall;
    let mut out = TextTable::new(&["limit", "policy", "admission", "hit-ratio", "time/naive"]);
    let policies: [(&str, EvictionPolicy, AdmissionPolicy); 4] = [
        ("LRU", EvictionPolicy::Lru, AdmissionPolicy::KeepAll),
        ("CRD+LRU", EvictionPolicy::Lru, AdmissionPolicy::Credit(5)),
        ("BP", EvictionPolicy::Benefit, AdmissionPolicy::KeepAll),
        (
            "CRD+BP",
            EvictionPolicy::Benefit,
            AdmissionPolicy::Credit(5),
        ),
    ];
    for pct in [20usize, 40, 60, 80] {
        for (name, ev, adm) in policies.iter() {
            let cfg = RecyclerConfig::default()
                .admission(*adm)
                .eviction(*ev)
                .entry_limit((total_entries * pct / 100).max(4));
            let (run, _) = run_recycled(cat.clone(), &templates, &items, cfg, false);
            let hit = run.cumulative_hit_ratio().last().copied().unwrap_or(0.0);
            out.row(vec![
                format!("{pct}% CL"),
                name.to_string(),
                format!("{:?}", adm_label(adm)),
                format!("{hit:.3}"),
                fmt_ratio(run.total.as_secs_f64() / naive.total.as_secs_f64()),
            ]);
        }
    }
    for pct in [20usize, 40, 60, 80] {
        for (name, ev, adm) in policies.iter() {
            let cfg = RecyclerConfig::default()
                .admission(*adm)
                .eviction(*ev)
                .mem_limit((total_bytes * pct / 100).max(1024));
            let (run, _) = run_recycled(cat.clone(), &templates, &items, cfg, false);
            let hit = run.cumulative_hit_ratio().last().copied().unwrap_or(0.0);
            out.row(vec![
                format!("{pct}% Mem"),
                name.to_string(),
                format!("{:?}", adm_label(adm)),
                format!("{hit:.3}"),
                fmt_ratio(run.total.as_secs_f64() / naive.total.as_secs_f64()),
            ]);
        }
    }
    format!(
        "Figures 10/11 — eviction policies under resource limits (keepall: {} entries, {})\n{}",
        total_entries,
        fmt_bytes(total_bytes),
        out.render()
    )
}

fn adm_label(a: &AdmissionPolicy) -> &'static str {
    match a {
        AdmissionPolicy::KeepAll => "keepall",
        AdmissionPolicy::Paced => "paced",
        AdmissionPolicy::Credit(_) => "credit",
        AdmissionPolicy::Adaptive(_) => "adapt",
    }
}

/// Figures 12 and 13: recycling in the presence of updates — pool memory
/// and entry count over the batch with an update block after every `k`
/// queries (K=20 for Fig. 12, K=1 for Fig. 13).
pub fn fig12_13(env: &ExpEnv, k: usize) -> String {
    let cat = env.tpch();
    let (templates, items) = mixed_items(env);
    // measure the keepall total to scale the memory limits (paper: 5 GB
    // total, limits 2.5 GB and 1 GB)
    let (_, ke) = run_recycled(cat.clone(), &templates, &items, keepall(), false);
    let total_bytes = ke.pool().bytes().max(1);
    let configs: [(&str, RecyclerConfig); 3] = [
        ("KeepAll", keepall()),
        (
            "LRU/50%",
            keepall()
                .eviction(EvictionPolicy::Lru)
                .mem_limit(total_bytes / 2),
        ),
        (
            "LRU/20%",
            keepall()
                .eviction(EvictionPolicy::Lru)
                .mem_limit(total_bytes / 5),
        ),
    ];
    let mut sections = String::new();
    for (name, cfg) in configs {
        let db = DatabaseBuilder::new(cat.clone()).recycler(cfg).build();
        let opt: Vec<Program> = templates.iter().map(|t| db.prepare(t.clone())).collect();
        let mut session = db.session();
        let mut rng = SmallRng::seed_from_u64(env.seed ^ 0xfeed);
        let mut series = TextTable::new(&["query#", "RP-mem", "RP-entries", "invalidated"]);
        let sample_every = (items.len() / 12).max(1);
        for (i, item) in items.iter().enumerate() {
            // one update block in the middle of every k-query block
            if k > 0 && i % k == k / 2 {
                let snapshot = db.catalog();
                let ins = tpch::insert_block(&snapshot, &mut rng, 8);
                session
                    .commit(Update::to("orders").insert(ins.order_rows))
                    .expect("insert orders");
                session
                    .commit(Update::to("lineitem").insert(ins.lineitem_rows))
                    .expect("insert lineitems");
                let snapshot = db.catalog();
                let del = tpch::delete_block(&snapshot, &mut rng, 4);
                session
                    .commit(Update::to("lineitem").delete(del.delete_lineitems))
                    .expect("delete lineitems");
                session
                    .commit(Update::to("orders").delete(del.delete_orders))
                    .expect("delete orders");
            }
            session
                .query(&opt[item.query_idx], &item.params)
                .expect("query runs");
            if i % sample_every == 0 || i + 1 == items.len() {
                series.row(vec![
                    (i + 1).to_string(),
                    fmt_bytes(db.pool().bytes()),
                    db.pool().len().to_string(),
                    db.stats().invalidated.to_string(),
                ]);
            }
        }
        sections.push_str(&format!("strategy {name}\n{}\n", series.render()));
    }
    format!(
        "Figures 12/13 — recycling with updates, K={k} (keepall baseline {})\n{}",
        fmt_bytes(total_bytes),
        sections
    )
}

/// Table III: recycle-pool content by instruction family after the
/// SkyServer batch.
pub fn table3(env: &ExpEnv) -> String {
    let cat = env.sky();
    let (templates, log) = skyserver::sample_log(100, env.seed);
    let items: Vec<BenchItem> = log
        .iter()
        .map(|l| BenchItem {
            query_idx: l.query_idx,
            label: l.query_idx as u8,
            params: l.params.clone(),
        })
        .collect();
    let (run, engine) = run_recycled(cat, &templates, &items, keepall(), false);
    let snap = engine.snapshot();
    let mut out = TextTable::new(&[
        "family",
        "lines",
        "memory",
        "avg-time",
        "reused-lines",
        "reuses",
        "time-saved",
    ]);
    for (fam, row) in &snap.by_family {
        out.row(vec![
            fam.to_string(),
            row.lines.to_string(),
            fmt_bytes(row.bytes as usize),
            fmt_dur(row.avg_cpu),
            row.reused_lines.to_string(),
            row.reuses.to_string(),
            fmt_dur(row.time_saved),
        ]);
    }
    let monitored = run.monitored();
    let hits = run.hits();
    format!(
        "Table III — recycle pool after the 100-query SkyServer batch\n\
         monitored instructions: {monitored}, reused: {hits} ({:.1}%)\n{}",
        100.0 * hits as f64 / monitored.max(1) as f64,
        out.render()
    )
}

/// Figure 14: SkyServer batch times — naive vs resource-limited CRD/LRU vs
/// KEEPALL/unlimited, for batch splits 4×25, 2×50 and 1×100 (pool emptied
/// between sub-batches).
pub fn fig14(env: &ExpEnv) -> String {
    let cat = env.sky();
    let (templates, log) = skyserver::sample_log(100, env.seed);
    let items: Vec<BenchItem> = log
        .iter()
        .map(|l| BenchItem {
            query_idx: l.query_idx,
            label: l.query_idx as u8,
            params: l.params.clone(),
        })
        .collect();
    let naive = run_naive(cat.clone(), &templates, &items);
    // keepall baseline for the memory limit
    let (_, ke) = run_recycled(cat.clone(), &templates, &items, keepall(), false);
    let limit = (ke.pool().bytes() * 65 / 100).max(1024);
    let mut out = TextTable::new(&["split", "Naive", "CRD/LRU/65%", "KeepAll/Unlim"]);
    for &split in &[4usize, 2, 1] {
        let chunk = items.len() / split;
        let mut crd_total = Duration::ZERO;
        let mut keep_total = Duration::ZERO;
        for part in items.chunks(chunk) {
            let cfg = RecyclerConfig::default()
                .admission(AdmissionPolicy::Credit(5))
                .eviction(EvictionPolicy::Lru)
                .mem_limit(limit);
            let (r, _) = run_recycled(cat.clone(), &templates, part, cfg, false);
            crd_total += r.total;
            let (r2, _) = run_recycled(cat.clone(), &templates, part, keepall(), false);
            keep_total += r2.total;
        }
        out.row(vec![
            format!("{}x{}", split, chunk),
            fmt_dur(naive.total),
            fmt_dur(crd_total),
            fmt_dur(keep_total),
        ]);
    }
    format!(
        "Figure 14 — SkyServer batch (100 queries)\n{}",
        out.render()
    )
}

/// Figure 15: the combined-subsumption micro-benchmarks B2 (k=2) and B4
/// (k=4): per-query total-time ratio, seed-select time ratio and the
/// cumulative algorithm search time.
pub fn fig15(env: &ExpEnv) -> String {
    let mut sections = String::new();
    for (name, seeds, k) in [("B2", 20usize, 2usize), ("B4", 12, 4)] {
        let cat = env.sky();
        let (template, mitems) = skyserver::microbench(seeds, k, 0.02, env.seed);
        let items: Vec<BenchItem> = mitems
            .iter()
            .map(|m| BenchItem {
                query_idx: 0,
                label: m.is_seed as u8,
                params: m.params.clone(),
            })
            .collect();
        let templates = vec![template];
        let naive = run_naive(cat.clone(), &templates, &items);
        // custom loop to read the subsumption search time after each query
        let db = DatabaseBuilder::new(cat).recycler(keepall()).build();
        let t = db.prepare(templates[0].clone());
        let mut session = db.session();
        let mut out = TextTable::new(&[
            "query#",
            "kind",
            "total-ratio",
            "seed-select-ratio",
            "alg-time",
            "subsumed",
        ]);
        let mut prev_search = Duration::ZERO;
        let mut seed_ratios: Vec<f64> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let res = session
                .query_output(&t, &item.params)
                .expect("microbench query");
            let search = db.stats().subsume_search;
            let alg = search.saturating_sub(prev_search);
            prev_search = search;
            let is_seed = mitems[i].is_seed;
            let ratio =
                res.stats.elapsed.as_secs_f64() / naive.runs[i].elapsed.as_secs_f64().max(1e-9);
            let select_ratio = {
                let rec_sel: Duration = res
                    .stats
                    .profile
                    .iter()
                    .filter(|p| p.op == "algebra.select")
                    .map(|p| p.cpu)
                    .sum();
                let nav_sel = naive.runs[i].elapsed; // select dominates the naive plan
                rec_sel.as_secs_f64() / nav_sel.as_secs_f64().max(1e-9)
            };
            if is_seed {
                seed_ratios.push(select_ratio);
                out.row(vec![
                    (i + 1).to_string(),
                    "seed".into(),
                    format!("{ratio:.2}"),
                    format!("{select_ratio:.2}"),
                    fmt_dur(alg),
                    (res.stats.subsumed > 0).to_string(),
                ]);
            } else if i % 3 == 0 {
                out.row(vec![
                    (i + 1).to_string(),
                    "cover".into(),
                    format!("{ratio:.2}"),
                    "-".into(),
                    fmt_dur(alg),
                    (res.stats.subsumed > 0).to_string(),
                ]);
            }
        }
        let avg_seed = seed_ratios.iter().sum::<f64>() / seed_ratios.len().max(1) as f64;
        sections.push_str(&format!(
            "benchmark {name} (seeds={seeds}, k={k}): avg seed select ratio {avg_seed:.2}\n{}\n",
            out.render()
        ));
    }
    format!("Figure 15 — combined subsumption micro-benchmarks\n{sections}")
}

/// Ablation of the recycler's design choices on the mixed 200-query batch:
/// full recycler vs no combined subsumption vs no subsumption at all vs
/// naive execution. Not a paper artefact — it isolates how much each §5
/// mechanism contributes on top of exact matching.
pub fn ablation(env: &ExpEnv) -> String {
    let cat = env.tpch();
    let (templates, items) = mixed_items(env);
    let naive = run_naive(cat.clone(), &templates, &items);
    let mut out = TextTable::new(&["configuration", "hits", "subsumed", "time", "time/naive"]);
    out.row(vec![
        "naive".into(),
        "-".into(),
        "-".into(),
        fmt_dur(naive.total),
        "1.000".into(),
    ]);
    let configs = [
        ("full recycler", keepall()),
        ("no combined subsumption", keepall().combined(false)),
        ("no subsumption", keepall().subsumption(false)),
    ];
    for (name, cfg) in configs {
        let (run, _) = run_recycled(cat.clone(), &templates, &items, cfg, false);
        let subsumed: u64 = run.runs.iter().map(|r| r.subsumed).sum();
        out.row(vec![
            name.into(),
            run.hits().to_string(),
            subsumed.to_string(),
            fmt_dur(run.total),
            fmt_ratio(run.total.as_secs_f64() / naive.total.as_secs_f64()),
        ]);
    }
    format!(
        "Ablation — contribution of the subsumption mechanisms (§5)\n{}",
        out.render()
    )
}

/// `repro sessions` — the concurrency evidence the one-client `benchmark/`
/// cannot give, at fixed sizes (left out of `all`): the median and
/// quartiles over 8 repetitions of the TPC-H mix (200 rounds of
/// `mixed_batch(&MIXED_QUERIES, 2, ·)` under a 4 MiB pool) at 1 and 2
/// sessions, `update_mixed(3, 300_000, 4_000)` reader throughput and
/// `pool_scaling(&[1, 2, 4], 300_000)`. Each repetition runs every driver
/// once, so drift on a shared host spreads over all rows alike.
pub fn sessions(env: &ExpEnv) -> String {
    const REPS: usize = 8;
    let cat = env.tpch();
    let mut templates = Vec::new();
    let mut items = Vec::new();
    for round in 0..200 {
        let (qs, batch) = tpch::mixed_batch(&tpch::workload::MIXED_QUERIES, 2, env.seed + round);
        templates = tpch_templates(&qs);
        items.extend(to_bench_items(&batch));
    }
    let tpch_qps = |n: usize| {
        let streams = partition_streams(&items, n);
        let config = RecyclerConfig::default().mem_limit(4 << 20);
        let out = run_concurrent(cat.clone(), &templates, &streams, config);
        out.queries as f64 / out.elapsed.as_secs_f64()
    };
    let mut rows: Vec<(&str, Vec<f64>)> = [
        "tpch_mix 1 session",
        "tpch_mix 2 sessions",
        "update_mixed readers",
        "pool_scaling 1 session",
        "pool_scaling 2 sessions",
        "pool_scaling 4 sessions",
    ]
    .into_iter()
    .map(|name| (name, Vec::new()))
    .collect();
    for _ in 0..REPS {
        rows[0].1.push(tpch_qps(1));
        rows[1].1.push(tpch_qps(2));
        let mixed = update_mixed(3, 300_000, 4_000, RecyclerConfig::default());
        rows[2].1.push(mixed.reader_qps);
        let points = pool_scaling(&[1, 2, 4], 300_000, RecyclerConfig::default());
        for (row, point) in rows[3..].iter_mut().zip(points) {
            row.1.push(point.queries_per_sec);
        }
    }
    let mut out = TextTable::new(&["driver", "q/s median", "q1", "q3"]);
    for (name, mut runs) in rows {
        runs.sort_unstable_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (runs.len() - 1) as f64;
            let (lo, hi) = (runs[x.floor() as usize], runs[x.ceil() as usize]);
            format!("{:.0}", lo + (hi - lo) * x.fract())
        };
        out.row(vec![name.to_string(), at(0.5), at(0.25), at(0.75)]);
    }
    format!(
        "Sessions — throughput over {REPS} repetitions\n{}",
        out.render()
    )
}

/// `repro templates` — what recycling buys each template (left out of
/// `all`): µs per query of each of the ten `MIXED_QUERIES` templates over
/// 64 rounds of `mixed_batch(&MIXED_QUERIES, 2, ·)` under a 4 MiB pool,
/// recycled under KEEPALL and under the default admission, beside a
/// `.naive()` database replaying the same script. The first four rounds
/// fill the pool and are not counted. Each side runs on a freshly
/// generated catalog, so none inherits key indexes another side built.
pub fn templates(env: &ExpEnv) -> String {
    const ROUNDS: u64 = 64;
    const WARMUP: usize = 4 * 20;
    let mut templates = Vec::new();
    let mut items = Vec::new();
    for round in 0..ROUNDS {
        let (qs, batch) = tpch::mixed_batch(&tpch::workload::MIXED_QUERIES, 2, env.seed + round);
        templates = tpch_templates(&qs);
        items.extend(to_bench_items(&batch));
    }
    let capped = |config: RecyclerConfig| {
        let config = config.mem_limit(4 << 20);
        run_recycled(env.tpch(), &templates, &items, config, false).0
    };
    let sides = [
        run_naive(env.tpch(), &templates, &items),
        capped(keepall()),
        capped(RecyclerConfig::default()),
    ];
    // µs per counted query of template `qno` (all of them for `None`)
    let per_query = |side: &BatchOutcome, qno: Option<u8>| {
        let runs = side.runs[WARMUP..].iter();
        let picked: Vec<Duration> = runs
            .filter(|r| qno.is_none_or(|q| r.label == q))
            .map(|r| r.elapsed)
            .collect();
        picked.iter().sum::<Duration>().as_secs_f64() * 1e6 / picked.len().max(1) as f64
    };
    let mut out = TextTable::new(&[
        "Query",
        "naive µs",
        "keepall µs",
        "keepall/naive",
        "default µs",
        "default/naive",
    ]);
    let rows = tpch::workload::MIXED_QUERIES.iter().map(|&q| Some(q));
    for qno in rows.chain([None]) {
        let [naive, keep, paced] = sides.each_ref().map(|side| per_query(side, qno));
        out.row(vec![
            qno.map_or("all".into(), |q| format!("Q{q}")),
            format!("{naive:.0}"),
            format!("{keep:.0}"),
            fmt_ratio(keep / naive),
            format!("{paced:.0}"),
            fmt_ratio(paced / naive),
        ]);
    }
    format!(
        "Templates — µs per query, recycled (4 MiB pool) vs naive, {} counted queries\n{}",
        items.len() - WARMUP,
        out.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_env() -> ExpEnv {
        ExpEnv {
            sf: 0.002,
            sky_objects: 3000,
            seed: 42,
        }
    }

    #[test]
    fn profile_runs_and_reports_hits() {
        let s = profile_query(&tiny_env(), 18, 3);
        assert!(s.contains("hit-ratio"));
        assert!(s.lines().count() > 4);
    }

    #[test]
    fn fig15_reports_subsumption() {
        let env = ExpEnv {
            sf: 0.002,
            sky_objects: 4000,
            seed: 42,
        };
        let s = fig15(&env);
        assert!(s.contains("seed"));
        assert!(
            s.contains("true"),
            "at least one seed query must be answered by subsumption:\n{s}"
        );
    }
}
