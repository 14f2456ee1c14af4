//! The paper's motivation, end to end: rough masks should lose accuracy
//! when "deployed" on hardware with interpixel crosstalk, and
//! physics-aware optimization should close that gap. Trains a
//! roughness-oblivious baseline and a roughness-aware model, sweeps the
//! crosstalk strength, then prints what it measured: each model's digital
//! accuracy beside chance, and its accuracy change at the strongest
//! crosstalk.
//!
//! ```sh
//! cargo run --release --example deploy_gap
//! ```

use photonn_datasets::{Dataset, Family};
use photonn_donn::deploy::{deployment_gap, FabricationModel};
use photonn_donn::roughness::{r_overall, RoughnessConfig};
use photonn_donn::train::{train, Regularization, TrainOptions};
use photonn_donn::{Donn, DonnConfig};
use photonn_math::Rng;

fn main() {
    let grid = 32;
    let data = Dataset::synthetic(Family::Mnist, 700, 11).resized(grid);
    let (train_set, test_set) = data.split(500);

    let mut rng = Rng::seed_from(11);
    let mut baseline = Donn::random(DonnConfig::scaled(grid), &mut rng);
    let mut aware = baseline.clone();

    let base_opts = TrainOptions {
        epochs: 4,
        batch_size: 25,
        learning_rate: 0.08,
        ..TrainOptions::default()
    };
    println!("training roughness-oblivious baseline...");
    train(&mut baseline, &train_set, &base_opts);
    println!("training roughness-aware model (p = 0.004)...");
    let aware_opts = TrainOptions {
        regularization: Regularization::roughness_only(0.004),
        ..base_opts
    };
    train(&mut aware, &train_set, &aware_opts);

    let cfg = RoughnessConfig::paper();
    println!(
        "\nR_overall: baseline {:.1} | roughness-aware {:.1}\n",
        r_overall(baseline.masks(), cfg),
        r_overall(aware.masks(), cfg)
    );

    println!("crosstalk κ | baseline digital→deployed | aware digital→deployed");
    let mut strongest = [(0.0, 0.0); 2];
    let mut kappa_max = 0.0;
    for kappa in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let fab = FabricationModel::new(kappa);
        let (bd, bdep) = deployment_gap(&baseline, &fab, &test_set, 2);
        let (ad, adep) = deployment_gap(&aware, &fab, &test_set, 2);
        println!(
            "   {kappa:>4.2}    |     {:>5.1}% → {:>5.1}%      |    {:>5.1}% → {:>5.1}%",
            bd * 100.0,
            bdep * 100.0,
            ad * 100.0,
            adep * 100.0
        );
        strongest = [(bd, bdep), (ad, adep)];
        kappa_max = kappa;
    }
    // The paper (§II-B) cites ≥30% degradation for roughness-oblivious
    // deployments; report what this run measured, whichever way it went.
    let chance = 100.0 / test_set.num_classes() as f64;
    println!();
    for (name, (digital, deployed)) in ["baseline", "roughness-aware"].into_iter().zip(strongest) {
        println!(
            "{name:>15}: digital {:.1}% (chance {chance:.1}%), {:+.1} points deployed at κ = {kappa_max:.2}",
            digital * 100.0,
            (deployed - digital) * 100.0
        );
    }
}
