//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                 # every table and figure
//! repro table2 fig4 fig15   # selected experiments
//! repro c10k                # the reactor's idle-connection smoke
//! repro sessions            # concurrent-session throughput, 8 repetitions
//! repro templates           # µs per TPC-H template, recycled vs naive
//! ```
//!
//! Environment: `REPRO_SF` (TPC-H scale factor, default 0.01),
//! `REPRO_SKY` (sky objects, default 40000), `REPRO_SEED`,
//! `REPRO_C10K_IDLE` / `REPRO_C10K_HOT` (the `c10k` idle-swarm and
//! hot-client counts). Performance numbers come from the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`), not from here.

use rcy_bench::experiments::{self, ExpEnv};

fn main() {
    let env = ExpEnv::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "fig12", "fig13", "table3",
            "fig14", "fig15", "ablation",
        ]
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    eprintln!(
        "# repro: sf={} sky={} seed={} — experiments: {wanted:?}",
        env.sf, env.sky_objects, env.seed
    );
    for exp in wanted {
        let started = std::time::Instant::now();
        let output = match exp {
            "table2" => experiments::table2(&env),
            "fig4" => experiments::fig4(&env),
            "fig5" => experiments::fig5(&env),
            "fig6" => experiments::fig6(&env),
            "fig7" => experiments::fig7(&env),
            "fig8" | "fig9" | "fig8_9" => experiments::fig8_9(&env),
            "fig10" | "fig11" | "fig10_11" => experiments::fig10_11(&env),
            "fig12" => experiments::fig12_13(&env, 20),
            "fig13" => experiments::fig12_13(&env, 1),
            "table3" => experiments::table3(&env),
            "fig14" => experiments::fig14(&env),
            "fig15" => experiments::fig15(&env),
            "ablation" => experiments::ablation(&env),
            "sessions" => experiments::sessions(&env),
            "templates" => experiments::templates(&env),
            "c10k" => {
                // the reactor smoke: ≥1k idle connections must be flat.
                // Scaled by REPRO_C10K_IDLE / REPRO_C10K_HOT.
                let idle: usize = std::env::var("REPRO_C10K_IDLE")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1200);
                let hot: usize = std::env::var("REPRO_C10K_HOT")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(4);
                let out = rcy_bench::server_c10k(idle, hot, 150);
                assert!(
                    out.live_connections >= idle as u64,
                    "idle swarm not fully connected: {out:?}"
                );
                assert!(
                    out.idle_memory_is_flat(64.0 * 1024.0),
                    "idle connections are not flat: {:.0} bytes each ({out:?})",
                    out.per_idle_conn_bytes
                );
                let ratio = |ours: f64, theirs: f64| if theirs > 0.0 { ours / theirs } else { 0.0 };
                // noise on a shared VM is wide even pinned: the smoke
                // fails only on a reactor clearly behind the blocking
                // server, hot clients or single connection
                assert!(
                    out.throughput_holds(0.75),
                    "the reactor fell behind the thread-per-connection server: {out:?}"
                );
                format!(
                    "idle={} hot={} queries={} nofile={} pinned_to_cpu={:?}\n\
                     rss: {:.1} MiB -> {:.1} MiB ({:.0} bytes per idle conn)\n\
                     qps: reactor={:.0} baseline={:.0} (ratio {:.2})\n\
                     one conn: sequential={:.0} baseline={:.0} (ratio {:.2}); pipelined={:.0}",
                    out.idle_connections,
                    out.hot_clients,
                    out.hot_queries,
                    out.nofile_limit,
                    out.pinned_to_cpu,
                    out.rss_before_idle as f64 / (1 << 20) as f64,
                    out.rss_with_idle as f64 / (1 << 20) as f64,
                    out.per_idle_conn_bytes,
                    out.reactor_qps,
                    out.baseline_qps,
                    ratio(out.reactor_qps, out.baseline_qps),
                    out.sequential_qps,
                    out.baseline_sequential_qps,
                    ratio(out.sequential_qps, out.baseline_sequential_qps),
                    out.pipelined_qps,
                )
            }
            other => {
                eprintln!("unknown experiment: {other}");
                continue;
            }
        };
        println!("\n=== {exp} ===\n{output}");
        eprintln!("# {exp} took {:.1}s", started.elapsed().as_secs_f64());
    }
}
