//! The distributed determinism contract, property-tested end to end:
//!
//! * for random grid sizes (power-of-two and mixed-radix), batch sizes and
//!   worker counts, the sharded all-reduced gradients match the
//!   single-tape batched gradients to ≤ 1e-12;
//! * equal-size power-of-two splits are **bit-identical** to the single
//!   tape;
//! * the loopback-TCP transport is bit-identical to the in-process pool;
//! * degenerate splits (1-sample batches, more workers than samples)
//!   clamp cleanly.

use photonn_datasets::{Dataset, Family};
use photonn_dist::{
    all_reduce, in_process_shard_grads, serve_peer_forever, serve_peer_once, shard_batch,
    sharded_gradients, train_sharded, DistConfig, FaultConfig, TcpPool,
};
use photonn_donn::train::{
    batched_gradients, shard_gradients, train, train_with_grad_source, TrainOptions,
};
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{Grid, Rng};
use std::net::TcpListener;
use std::sync::Arc;

fn setup(grid: usize, samples: usize, seed: u64) -> (Donn, Dataset) {
    let donn = Donn::random(DonnConfig::scaled(grid), &mut Rng::seed_from(seed));
    let data = Dataset::synthetic(Family::Mnist, samples, seed).resized(grid);
    (donn, data)
}

#[test]
fn property_sharded_matches_single_tape_below_1e12() {
    // Random (grid, batch, workers) draws from the in-tree PRNG: grids
    // cover both FFT engines (16 = 2⁴ vectorized pow2, 20 = 2²·5 planar
    // mixed-radix — the paper-native 200-grid path in miniature).
    let mut rng = Rng::seed_from(2024);
    for trial in 0..12 {
        let grid = if rng.uniform_in(0.0, 1.0) < 0.5 {
            16
        } else {
            20
        };
        let batch_size = 1 + (rng.uniform_in(0.0, 12.0) as usize);
        let workers = (rng.uniform_in(0.0, 7.0) as usize).min(6);
        let (donn, data) = setup(grid, batch_size, 100 + trial);
        let batch: Vec<usize> = (0..batch_size).collect();

        let (reference, ref_loss) = batched_gradients(&donn, &data, &batch, None, 1);
        let dist = DistConfig::in_process(workers);
        let (grads, loss) =
            sharded_gradients(&donn, &data, &batch, None, &dist).expect("healthy shards");

        assert!(
            (loss - ref_loss).abs() < 1e-12,
            "trial {trial}: grid {grid}, batch {batch_size}, workers {workers}: \
             loss {loss} vs {ref_loss}"
        );
        assert_eq!(grads.len(), reference.len());
        for (layer, (g, r)) in grads.iter().zip(&reference).enumerate() {
            let diff = g.max_abs_diff(r);
            assert!(
                diff < 1e-12,
                "trial {trial}: grid {grid}, batch {batch_size}, workers {workers}, \
                 layer {layer}: max diff {diff}"
            );
        }
    }
}

#[test]
fn equal_power_of_two_splits_are_bit_identical() {
    for (grid, batch_size) in [(16usize, 8usize), (20, 12)] {
        let (donn, data) = setup(grid, batch_size, 55);
        let batch: Vec<usize> = (0..batch_size).collect();
        let (reference, _) = batched_gradients(&donn, &data, &batch, None, 1);
        for workers in [1usize, 2, 4] {
            if batch_size % workers != 0 {
                continue;
            }
            let dist = DistConfig::in_process(workers);
            let (grads, _) =
                sharded_gradients(&donn, &data, &batch, None, &dist).expect("healthy shards");
            assert_eq!(
                grads, reference,
                "grid {grid}, batch {batch_size}, {workers} workers"
            );
        }
    }
}

#[test]
fn freeze_masks_survive_sharding() {
    let (donn, data) = setup(16, 6, 77);
    let batch: Vec<usize> = (0..6).collect();
    let mut keep = Grid::full(16, 16, 1.0);
    keep[(3, 3)] = 0.0;
    keep[(12, 7)] = 0.0;
    let shared = Arc::new(keep);
    let freeze: Vec<Arc<Grid>> = vec![shared.clone(), shared.clone(), shared];

    let (reference, _) = batched_gradients(&donn, &data, &batch, Some(&freeze), 1);
    let (grads, _) = sharded_gradients(
        &donn,
        &data,
        &batch,
        Some(&freeze),
        &DistConfig::in_process(2),
    )
    .expect("healthy shards");
    assert_eq!(grads, reference, "2 equal shards with freeze");
    for g in &grads {
        assert_eq!(g[(3, 3)], 0.0);
        assert_eq!(g[(12, 7)], 0.0);
    }
}

#[test]
fn degenerate_splits_clamp_cleanly() {
    let (donn, data) = setup(16, 3, 88);
    // More workers than samples: 3 singleton shards, no panic, and the
    // all-reduce still lands within tolerance of the single tape.
    let batch: Vec<usize> = vec![0, 1, 2];
    let (reference, _) = batched_gradients(&donn, &data, &batch, None, 1);
    for workers in [0usize, 3, 5, 64] {
        let (grads, _) =
            sharded_gradients(&donn, &data, &batch, None, &DistConfig::in_process(workers))
                .expect("healthy shards");
        for (g, r) in grads.iter().zip(&reference) {
            assert!(g.max_abs_diff(r) < 1e-12, "{workers} workers");
        }
    }
    // One-sample batch at any worker count is the single tape, bit for bit.
    let one: Vec<usize> = vec![1];
    let (reference, _) = batched_gradients(&donn, &data, &one, None, 1);
    for workers in [1usize, 2, 9] {
        let (grads, _) =
            sharded_gradients(&donn, &data, &one, None, &DistConfig::in_process(workers))
                .expect("healthy shards");
        assert_eq!(grads, reference, "{workers} workers, singleton batch");
    }
}

#[test]
fn tcp_transport_is_bit_identical_to_in_process() {
    // Two peers served from background threads in this same process: the
    // full init/step/grads protocol over real loopback sockets. Rank 0
    // computes shard 0 locally, exactly like train_with_sharded.
    let (donn, data) = setup(20, 9, 99);
    let batch: Vec<usize> = (0..9).collect();
    let workers = 3;

    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    let peer_threads: Vec<_> = listeners
        .into_iter()
        .map(|l| std::thread::spawn(move || serve_peer_once(&l, 1).expect("peer session")))
        .collect();

    let mut pool = TcpPool::connect(&addrs, donn.config(), &data, None, FaultConfig::default())
        .expect("connect");
    let shards = shard_batch(&batch, workers);
    pool.send_steps(donn.masks(), &shards[1..], batch.len())
        .expect("send");
    let local = shard_gradients(&donn, &data, shards[0], None, 1, batch.len());
    let mut parts = vec![local];
    parts.extend(pool.collect_grads(2).expect("collect"));
    let (tcp_grads, tcp_loss) = all_reduce(parts, donn.masks(), None);
    pool.shutdown();
    for t in peer_threads {
        t.join().expect("peer thread");
    }

    let in_proc_parts =
        in_process_shard_grads(&donn, &data, &batch, None, workers, 1).expect("healthy shards");
    let (ip_grads, ip_loss) = all_reduce(in_proc_parts, donn.masks(), None);
    assert_eq!(tcp_grads, ip_grads, "TCP vs in-process gradients");
    assert_eq!(
        tcp_loss.to_bits(),
        ip_loss.to_bits(),
        "TCP vs in-process loss"
    );
}

#[test]
fn sharded_training_run_reproduces_single_process_masks_bitwise() {
    // Equal power-of-two shards every step (dataset 32, batch 8 → batches
    // of 8 split 4+4) ⇒ every gradient is bit-identical ⇒ the whole
    // trained model is bit-identical to the single-process run.
    let (donn, data) = setup(16, 32, 123);
    let opts = TrainOptions {
        epochs: 2,
        batch_size: 8,
        learning_rate: 0.08,
        ..TrainOptions::default()
    };
    let mut single = donn.clone();
    let single_stats = train(&mut single, &data, &opts);

    let mut sharded = donn.clone();
    let mut epochs_seen = 0usize;
    let stats = photonn_dist::train_with_sharded(
        &mut sharded,
        &data,
        &opts,
        None,
        None,
        &DistConfig::in_process(2),
        Some(&mut |s| {
            assert_eq!(s.epoch, epochs_seen, "hook sees epochs in order");
            epochs_seen += 1;
        }),
    )
    .expect("in-process training cannot fail");

    assert_eq!(epochs_seen, 2, "epoch hook fired per epoch");
    for (a, b) in single.masks().iter().zip(sharded.masks()) {
        assert_eq!(a, b, "trained masks must be bit-identical");
    }
    for (s, d) in single_stats.iter().zip(&stats) {
        assert_eq!(s.epoch, d.epoch);
        assert!((s.mean_loss - d.mean_loss).abs() < 1e-12);
        assert!((s.penalty - d.penalty).abs() < 1e-12);
    }
}

#[test]
fn property_resplit_after_losing_any_worker_equals_fresh_split() {
    // The elastic re-split contract: when worker k of N is confirmed lost,
    // the surviving run re-plans every batch with `shard_batch(batch, N−1)`
    // — which must be *the* plan a fresh (N−1)-worker run would produce,
    // for every N ≤ 8, every lost rank k, and ragged batch lengths. The
    // shard plan depends only on (batch, worker count), never on which
    // rank disappeared, so the post-loss gradient stream is the fresh
    // run's stream.
    for n in 2usize..=8 {
        for len in [1usize, 2, 3, 5, 7, 8, 9, 13, 16, 31] {
            let batch: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
            let fresh: Vec<Vec<usize>> = shard_batch(&batch, n - 1)
                .iter()
                .map(|s| s.to_vec())
                .collect();
            for lost_rank in 0..n {
                let resplit: Vec<Vec<usize>> = shard_batch(&batch, n - 1)
                    .iter()
                    .map(|s| s.to_vec())
                    .collect();
                assert_eq!(
                    resplit, fresh,
                    "N={n}, lost rank {lost_rank}, batch len {len}"
                );
            }
            // And the plan still concatenates back to the batch.
            let flat: Vec<usize> = fresh.into_iter().flatten().collect();
            assert_eq!(flat, batch, "N={n}, batch len {len}");
        }
    }
}

#[test]
fn property_mid_run_membership_change_keeps_gradient_parity() {
    // A full training run whose worker count changes mid-run (4 → 3 → 1,
    // at fixed step indices — the in-process mirror of peers being lost),
    // checked per step against the single-tape batched gradients: the
    // all-reduced gradient must stay within 1e-12 of the oracle at every
    // membership, including the steps straddling each change.
    let (donn, data) = setup(16, 30, 456);
    let opts = TrainOptions {
        epochs: 2,
        batch_size: 10,
        learning_rate: 0.08,
        ..TrainOptions::default()
    };
    let mut model = donn.clone();
    let mut step = 0usize;
    train_with_grad_source(
        &mut model,
        &data,
        &opts,
        None,
        None,
        |donn, data, batch| {
            let workers = match step {
                0..=1 => 4,
                2..=3 => 3,
                _ => 1,
            };
            step += 1;
            let (oracle, oracle_loss) = batched_gradients(donn, data, batch, None, 1);
            let (grads, loss) =
                sharded_gradients(donn, data, batch, None, &DistConfig::in_process(workers))
                    .expect("healthy shards");
            assert!(
                (loss - oracle_loss).abs() < 1e-12,
                "step {step}: loss {loss} vs {oracle_loss} at {workers} workers"
            );
            for (layer, (g, r)) in grads.iter().zip(&oracle).enumerate() {
                let diff = g.max_abs_diff(r);
                assert!(
                    diff < 1e-12,
                    "step {step}, layer {layer}, {workers} workers: max diff {diff}"
                );
            }
            (grads, loss)
        },
        None,
    );
    assert_eq!(step, 6, "2 epochs × 3 batches all passed the oracle");
}

#[test]
fn train_sharded_learns_on_ragged_worker_counts() {
    // 3 workers over batches of 10 (ragged 4+3+3): not the bit-identity
    // case, but training must still work and match the single-process loss
    // closely.
    let (donn, data) = setup(16, 40, 321);
    let opts = TrainOptions {
        epochs: 2,
        batch_size: 10,
        learning_rate: 0.08,
        ..TrainOptions::default()
    };
    let mut single = donn.clone();
    let single_stats = train(&mut single, &data, &opts);
    let mut sharded = donn.clone();
    let stats = train_sharded(&mut sharded, &data, &opts, &DistConfig::in_process(3))
        .expect("in-process training cannot fail");
    assert!(stats[1].mean_loss < stats[0].mean_loss, "loss decreases");
    // Same schedule, gradients equal to ~1e-12 per step: losses track very
    // closely even after compounding through Adam.
    for (s, d) in single_stats.iter().zip(&stats) {
        assert!(
            (s.mean_loss - d.mean_loss).abs() < 1e-6,
            "epoch {}: {} vs {}",
            s.epoch,
            s.mean_loss,
            d.mean_loss
        );
    }
}

#[test]
fn non_finite_masks_cross_the_wire_bit_identically() {
    // One NaN mask pixel poisons every gradient. The in-process pool
    // returns those NaNs at once, and the TCP step must return the same
    // bits instead of failing the peer: the wire may not refuse a value
    // the in-process pool accepts. With no reconnect window and a floor of
    // two workers, a refused step ends in BelowMinWorkers rather than a
    // reconnect loop.
    let (mut donn, data) = setup(16, 4, 31);
    donn.masks_mut()[0][(5, 9)] = f64::NAN;
    let batch: Vec<usize> = (0..4).collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = serve_peer_forever(&listener, 1);
    });
    let fault = FaultConfig {
        reconnect_window_ms: 0,
        ..FaultConfig::default()
    };
    let mut pool = TcpPool::connect(&[addr], donn.config(), &data, None, fault).expect("connect");
    let (tcp_grads, tcp_loss) = pool
        .elastic_step(&donn, &data, &batch, None, 1, 2)
        .expect("the peer answers a NaN-mask step");
    pool.shutdown();

    let parts = in_process_shard_grads(&donn, &data, &batch, None, 2, 1).expect("healthy shards");
    let (ip_grads, ip_loss) = all_reduce(parts, donn.masks(), None);
    let bits = |gs: &[Grid]| -> Vec<u64> {
        gs.iter()
            .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    };
    assert!(ip_grads
        .iter()
        .any(|g| g.as_slice().iter().any(|v| v.is_nan())));
    assert_eq!(
        bits(&tcp_grads),
        bits(&ip_grads),
        "TCP vs in-process gradients"
    );
    assert_eq!(
        tcp_loss.to_bits(),
        ip_loss.to_bits(),
        "TCP vs in-process loss"
    );
}
