//! Decoding a video stream under a per-frame deadline.
//!
//! Uses the MPEG-style workload (`workloads::video`): each frame's work
//! depends on its type (I/P/B), so the OR structure exposes dynamic slack
//! frame by frame. The stream runs twice — with every frame starting at
//! `f_max` (the paper's independent-instances assumption) and with DVS
//! state carried across frames (`mp_sim::run_stream`) — to show the
//! transition savings of warm starts.
//!
//! Run with: `cargo run --release --example video_stream`

use pas_andor::core::{Scheme, Setup};
use pas_andor::power::ProcessorModel;
use pas_andor::sim::{run_stream, ExecTimeModel, Realization};
use pas_andor::workloads::VideoParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = VideoParams {
        frames: 2, // frames per deadline window (GOP slice)
        ..VideoParams::default()
    };
    let graph = params.build()?.lower()?;
    println!(
        "video app: {} tasks, {} OR nodes per window",
        graph.num_tasks(),
        graph.num_or_nodes()
    );

    // 30 fps-style budget: schedule each window at 60% load.
    let setup = Setup::for_load(graph, ProcessorModel::xscale(), 2, 0.6)?;
    println!(
        "window deadline {:.1} ms (Tw {:.1} ms, Ta {:.1} ms)\n",
        setup.plan.deadline, setup.plan.worst_total, setup.plan.avg_total
    );

    const WINDOWS: usize = 64;
    let mut rng = StdRng::seed_from_u64(30);
    let etm = ExecTimeModel::paper_defaults();
    let stream: Vec<Realization> = (0..WINDOWS).map(|_| setup.sample(&etm, &mut rng)).collect();

    println!(
        "{:<8} {:>14} {:>14} {:>14}",
        "scheme", "cold chg/win", "warm chg/win", "warm energy Δ"
    );
    for scheme in [Scheme::Spm, Scheme::Gss, Scheme::Ss1, Scheme::As] {
        let sim = setup.simulator(false);
        let mut policy = setup.policy(scheme);
        let cold = run_stream(&sim, policy.as_mut(), &stream, false, None)?;
        let warm = run_stream(&sim, policy.as_mut(), &stream, true, None)?;
        assert_eq!(cold.misses + warm.misses, 0);
        println!(
            "{:<8} {:>14.2} {:>14.2} {:>13.2}%",
            scheme.name(),
            cold.speed_changes() as f64 / WINDOWS as f64,
            warm.speed_changes() as f64 / WINDOWS as f64,
            100.0 * (warm.total_energy() - cold.total_energy()) / cold.total_energy()
        );
    }
    println!();
    println!("warm starts (DVS state kept across windows) avoid the return-to-");
    println!("f_max transition the paper's per-instance model pays every frame.");
    Ok(())
}
