//! End-to-end integration tests spanning all workspace crates: synthetic
//! data → optical encoding → differentiable DONN training → sparsification
//! → 2π smoothing → deployment simulation.

use photonn_datasets::{Dataset, Family};
use photonn_donn::deploy::FabricationModel;
use photonn_donn::pipeline::{run_variant_on, ExperimentConfig, Variant};
use photonn_donn::roughness::{r_overall, RoughnessConfig};
use photonn_donn::slr::SlrConfig;
use photonn_donn::train::{train, TrainOptions};
use photonn_donn::two_pi::TwoPiStrategy;
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{CGrid, Rng};

fn tiny_cfg(family: Family) -> ExperimentConfig {
    ExperimentConfig {
        train_samples: 150,
        test_samples: 60,
        baseline_epochs: 3,
        slr: SlrConfig {
            sparsity: 0.15,
            block: 8,
            outer_iterations: 2,
            probe_samples: 16,
            ..SlrConfig::default()
        },
        two_pi: TwoPiStrategy::Greedy { sweeps: 4 },
        ..ExperimentConfig::scaled(family)
    }
}

#[test]
fn training_beats_chance_on_every_family() {
    for family in Family::all() {
        let data = Dataset::synthetic(family, 260, 5).resized(32);
        let (train_set, test_set) = data.split(200);
        let mut rng = Rng::seed_from(5);
        let mut donn = Donn::random(DonnConfig::scaled(32), &mut rng);
        let opts = TrainOptions {
            epochs: 4,
            batch_size: 25,
            learning_rate: 0.08,
            ..TrainOptions::default()
        };
        train(&mut donn, &train_set, &opts);
        let acc = donn.accuracy(&test_set, 2);
        assert!(
            acc > 0.2,
            "{}: accuracy {acc} not above chance",
            family.name()
        );
    }
}

#[test]
fn full_pipeline_reproduces_paper_ordering() {
    // The paper's core qualitative claims on one dataset:
    //  (1) Ours-A (roughness-aware) is smoother than the baseline;
    //  (2) among the sparsified variants, adding the roughness regularizer
    //      (Ours-C vs Ours-B) lowers the 2π-optimized roughness — the
    //      scale-robust form of the Table II ordering (at this tiny test
    //      budget the *baseline* barely trains, so its roughness stays at
    //      the smooth-init floor; the full-size comparison against the
    //      baseline is exercised by the table binaries);
    //  (3) accuracy stays within a few points of the baseline.
    let cfg = tiny_cfg(Family::Mnist);
    let (train_set, test_set) = cfg.datasets();
    let baseline = run_variant_on(&cfg, Variant::Baseline, &train_set, &test_set);
    let ours_a = run_variant_on(&cfg, Variant::OursA, &train_set, &test_set);
    let ours_b = run_variant_on(&cfg, Variant::OursB, &train_set, &test_set);
    let ours_c = run_variant_on(&cfg, Variant::OursC, &train_set, &test_set);

    assert!(
        ours_a.r_before < baseline.r_before,
        "(1) Ours-A {} !< baseline {}",
        ours_a.r_before,
        baseline.r_before
    );
    assert!(
        ours_c.r_after < ours_b.r_after,
        "(2) Ours-C after-2π {} !< Ours-B after-2π {}",
        ours_c.r_after,
        ours_b.r_after
    );
    assert!(
        ours_c.accuracy > baseline.accuracy - 0.15,
        "(3) Ours-C accuracy collapsed: {} vs {}",
        ours_c.accuracy,
        baseline.accuracy
    );
}

#[test]
fn two_pi_never_changes_predictions() {
    let cfg = tiny_cfg(Family::Emnist);
    let (train_set, test_set) = cfg.datasets();
    let result = run_variant_on(&cfg, Variant::OursB, &train_set, &test_set);

    // Rebuild two models from the before/after masks and compare every
    // prediction on the test set.
    let mut rng = Rng::seed_from(0);
    let mut donn_before = Donn::random(DonnConfig::scaled(cfg.grid), &mut rng);
    donn_before.set_masks(result.masks.clone());
    let mut donn_after = donn_before.clone();
    donn_after.set_masks(result.masks_two_pi.clone());

    for i in 0..test_set.len() {
        assert_eq!(
            donn_before.predict(test_set.image(i)),
            donn_after.predict(test_set.image(i)),
            "prediction changed for sample {i}"
        );
    }
}

#[test]
fn smoother_models_survive_deployment_better() {
    // Train baseline and an aggressively roughness-regularized model, then
    // deploy both under identical crosstalk: the smoother model must keep
    // at least as much of its digital accuracy.
    let data = Dataset::synthetic(Family::Mnist, 220, 13).resized(32);
    let (train_set, test_set) = data.split(160);
    let mut rng = Rng::seed_from(13);
    let mut baseline = Donn::random(DonnConfig::scaled(32), &mut rng);
    let mut smooth = baseline.clone();

    let opts = TrainOptions {
        epochs: 3,
        batch_size: 20,
        learning_rate: 0.08,
        ..TrainOptions::default()
    };
    train(&mut baseline, &train_set, &opts);
    let smooth_opts = TrainOptions {
        regularization: photonn_donn::train::Regularization::roughness_only(0.01),
        ..opts
    };
    train(&mut smooth, &train_set, &smooth_opts);

    let cfg = RoughnessConfig::paper();
    assert!(r_overall(smooth.masks(), cfg) < r_overall(baseline.masks(), cfg));

    // The mechanism claim (§II-B): crosstalk distorts the deployed output
    // more for rougher masks. Accuracy on a tiny test set is too noisy a
    // proxy (margins dominate), so compare the digital-vs-deployed
    // detector-logit distortion directly, averaged over the test set.
    let fab = FabricationModel::new(0.25);
    let distortion = |donn: &Donn| -> f64 {
        let mut total = 0.0;
        for i in 0..test_set.len() {
            let image = test_set.image(i);
            let digital = donn.logits(image);
            let field = fab.forward_field(donn, &photonn_optics::encode_amplitude(image));
            let intensity = field.intensity();
            let deployed: Vec<f64> = donn.regions().iter().map(|r| r.sum(&intensity)).collect();
            let scale: f64 = digital.iter().sum::<f64>().max(1e-12);
            total += digital
                .iter()
                .zip(&deployed)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / scale;
        }
        total / test_set.len() as f64
    };
    let d_smooth = distortion(&smooth);
    let d_rough = distortion(&baseline);
    assert!(
        d_smooth < d_rough,
        "smooth-mask deployment distortion {d_smooth:.4} !< rough-mask {d_rough:.4}"
    );
}

#[test]
fn masks_transmissions_are_unitary_before_and_after_two_pi() {
    let cfg = tiny_cfg(Family::Kmnist);
    let (train_set, test_set) = cfg.datasets();
    let r = run_variant_on(&cfg, Variant::OursC, &train_set, &test_set);
    for masks in [&r.masks, &r.masks_two_pi] {
        for m in masks {
            let t = CGrid::from_phase(m);
            for z in t.as_slice() {
                assert!((z.norm() - 1.0).abs() < 1e-12, "non-unitary transmission");
            }
        }
    }
}
