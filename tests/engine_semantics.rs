//! Integration tests of the serving engine's core semantics: micro-batched
//! logits must be bitwise-identical to per-sample `Network::forward`, the
//! precision-switch schedule must be a pure function of the seed, and the
//! sharded runtime must produce identical results — logits, schedule and
//! merged cost ledger — for any worker count (the determinism contract of
//! `docs/ARCHITECTURE.md`).

use two_in_one_accel::prelude::*;

fn rps_net(seed: u64, set: &PrecisionSet) -> Network {
    let mut rng = SeededRng::new(seed);
    zoo::preact_resnet18_rps(3, 4, 5, set.clone(), &mut rng)
}

fn batch_of_one(x: &Tensor, i: usize) -> Tensor {
    let img = x.index_axis0(i);
    let mut shape = vec![1usize];
    shape.extend_from_slice(img.shape());
    img.reshape(&shape)
}

#[test]
fn micro_batched_logits_bitwise_equal_per_sample_forward() {
    // Property sweep: at every precision in 4~8-bit (and fp32), for several
    // random batches and micro-batch sizes, the engine's logits must match
    // the per-sample software path bit for bit.
    let set = PrecisionSet::range(4, 8);
    let mut net = rps_net(1, &set);
    let mut rng = SeededRng::new(2);
    let precisions: Vec<Option<Precision>> =
        std::iter::once(None).chain(set.iter().map(Some)).collect();
    for case in 0..3 {
        let n = 5 + case;
        let x = Tensor::rand_uniform(&[n, 3, 8, 8], 0.0, 1.0, &mut rng);
        for &p in &precisions {
            // Reference: one serving-mode forward per sample (Infer is the
            // path the engine runs — past the crossover depth it takes the
            // true-integer route under either kernel mode, so Eval would
            // not be bitwise-comparable).
            let mut reference = Vec::with_capacity(n);
            for i in 0..n {
                net.set_precision(p);
                let logits = net.forward(&batch_of_one(&x, i), Mode::Infer);
                reference.push(logits.index_axis0(0));
            }
            for max_batch in [1usize, 3, 8] {
                let cfg = EngineConfig::default()
                    .with_max_batch(max_batch)
                    .with_seed(9);
                let mut engine = Engine::new(&mut net, PrecisionPolicy::Fixed(p), cfg);
                let responses = engine.serve(&x);
                for (i, r) in responses.iter().enumerate() {
                    let got: Vec<u32> = r.logits.data().iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = reference[i].data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "case {}: sample {} at {:?} with max_batch {} is not bitwise equal",
                        case, i, p, max_batch
                    );
                }
            }
        }
    }
}

/// The contract the serving scheduler builds on: the seeded precision
/// schedule is a pure function of the *admission order* — how submissions
/// are grouped into flushes (batch-forming time, partial batches, EDF
/// windows upstream) must change neither the schedule nor a single logit
/// bit.
#[test]
fn schedule_is_pure_function_of_admission_order_not_flush_grouping() {
    const N: usize = 12;
    let set = PrecisionSet::range(4, 8);
    let mut rng = SeededRng::new(31);
    let x = Tensor::rand_uniform(&[N, 3, 8, 8], 0.0, 1.0, &mut rng);
    let cfg = EngineConfig::default().with_max_batch(4).with_seed(7);

    let run = |flush_points: &[usize]| {
        let mut engine = ShardedEngine::with_factory(
            2,
            |_| rps_net(1, &set),
            PrecisionPolicy::Random(set.clone()),
            cfg.clone(),
        );
        let mut responses = Vec::new();
        for i in 0..N {
            engine.submit(x.index_axis0(i));
            if flush_points.contains(&i) {
                responses.extend(engine.flush());
            }
        }
        responses.extend(engine.flush());
        responses
            .into_iter()
            .map(|r| {
                (
                    r.id,
                    r.precision,
                    r.logits
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<u32>>(),
                )
            })
            .collect::<Vec<_>>()
    };

    // One big flush, per-request flushes, and a ragged grouping: admission
    // order is identical, so everything observable must be too.
    let want = run(&[]);
    for flush_points in [(0..N).collect::<Vec<_>>(), vec![2, 6, 7], vec![0, 10]] {
        let got = run(&flush_points);
        assert_eq!(
            got, want,
            "flush grouping {flush_points:?} perturbed the schedule or logits"
        );
    }
}

#[test]
fn random_policy_grouping_preserves_bitwise_identity() {
    // Under RPS the engine groups equal-precision requests into shared
    // batches; each response must still match the per-sample forward at the
    // precision the engine reports for it.
    let set = PrecisionSet::range(4, 8);
    let mut net = rps_net(3, &set);
    let mut rng = SeededRng::new(4);
    let x = Tensor::rand_uniform(&[12, 3, 8, 8], 0.0, 1.0, &mut rng);
    let cfg = EngineConfig::default().with_max_batch(4).with_seed(77);
    let mut engine = Engine::new(&mut net, PrecisionPolicy::Random(set), cfg);
    let responses = engine.serve(&x);
    drop(engine);
    assert_eq!(responses.len(), 12);
    for (i, r) in responses.iter().enumerate() {
        net.set_precision(r.precision);
        let want = net.forward(&batch_of_one(&x, i), Mode::Infer);
        let got: Vec<u32> = r.logits.data().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want
            .index_axis0(0)
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want, "request {} at {:?}", i, r.precision);
    }
}

#[test]
fn fixed_seed_reproduces_the_precision_schedule() {
    let set = PrecisionSet::range(4, 8);
    let mut rng = SeededRng::new(5);
    let x = Tensor::rand_uniform(&[16, 3, 8, 8], 0.0, 1.0, &mut rng);
    let schedule = |seed: u64| {
        let mut net = rps_net(6, &set);
        let cfg = EngineConfig::default().with_max_batch(4).with_seed(seed);
        let mut engine = Engine::new(&mut net, PrecisionPolicy::Random(set.clone()), cfg);
        engine
            .serve(&x)
            .iter()
            .map(|r| r.precision)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        schedule(11),
        schedule(11),
        "same seed must reproduce the schedule"
    );
    assert_ne!(schedule(11), schedule(12), "different seeds should diverge");
}

#[test]
fn sim_backed_prices_batches_like_simulate_network() {
    let set = PrecisionSet::new(&[4, 8]);
    let net = rps_net(7, &set);
    let spec = NetworkSpec::resnet18_cifar();
    let small = EvoSearch {
        population: 8,
        cycles: 3,
        mode: SearchMode::Full,
    };
    let mut sim = SimBacked::new(net, Accelerator::ours().with_search(small), spec.clone());
    let mut rng = SeededRng::new(8);
    let x = Tensor::rand_uniform(&[6, 3, 8, 8], 0.0, 1.0, &mut rng);
    let cfg = EngineConfig::default().with_max_batch(3).with_seed(1);
    let mut engine = Engine::new(
        &mut sim,
        PrecisionPolicy::Fixed(Some(Precision::new(4))),
        cfg,
    );
    let responses = engine.serve(&x);
    assert_eq!(responses.len(), 6);
    let stats = engine.stats();
    drop(engine);
    let perf = Accelerator::ours()
        .with_search(EvoSearch {
            population: 8,
            cycles: 3,
            mode: SearchMode::Full,
        })
        .simulate_network(&spec, PrecisionPair::symmetric(4));
    assert!(stats.cost.modeled);
    assert_eq!(stats.cost.frames, 6);
    let want_cycles = 6.0 * perf.total_cycles;
    assert!(
        (stats.cost.cycles - want_cycles).abs() < 1e-6 * want_cycles,
        "engine cycles {} vs simulate_network {}",
        stats.cost.cycles,
        want_cycles
    );
    let ledger = sim.ledger();
    assert_eq!(ledger.frames, 6);
    assert!((ledger.energy - stats.cost.energy).abs() < 1e-9 * ledger.energy.abs());
}

#[test]
fn sharded_serving_is_worker_count_invariant() {
    // Same seed + same submission sequence => bitwise-identical logits and
    // the identical precision schedule for 1, 2 and 8 workers, all equal to
    // single-threaded engine serving.
    let set = PrecisionSet::range(4, 8);
    let mut rng = SeededRng::new(21);
    let x = Tensor::rand_uniform(&[13, 3, 8, 8], 0.0, 1.0, &mut rng);
    let cfg = EngineConfig::default().with_max_batch(4).with_seed(33);

    let mut single = Engine::new(
        rps_net(20, &set),
        PrecisionPolicy::Random(set.clone()),
        cfg.clone(),
    );
    let reference = single.serve(&x);

    for workers in [1usize, 2, 8] {
        let mut sharded = ShardedEngine::with_factory(
            workers,
            |_| rps_net(20, &set),
            PrecisionPolicy::Random(set.clone()),
            cfg.clone(),
        );
        let responses = sharded.serve(&x);
        assert_eq!(responses.len(), reference.len());
        for (r, want) in responses.iter().zip(&reference) {
            assert_eq!(r.id, want.id);
            assert_eq!(
                r.precision, want.precision,
                "schedule diverged at {} workers, request {}",
                workers, r.id
            );
            let got: Vec<u32> = r.logits.data().iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u32> = want.logits.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, ref_bits,
                "logits not bitwise equal at {} workers, request {}",
                workers, r.id
            );
        }
    }
}

#[test]
fn sharded_ledger_identical_across_worker_counts() {
    // The merged cost ledger accumulates per-request unit costs in
    // request-id order, so cycles/energy/fps are identical — not just
    // close — for any worker count. The per-shard SimBacked ledgers must
    // still add up to the merged totals.
    let set = PrecisionSet::new(&[4, 8]);
    let spec = NetworkSpec::resnet18_cifar();
    let small = EvoSearch {
        population: 8,
        cycles: 3,
        mode: SearchMode::Full,
    };
    let mut rng = SeededRng::new(22);
    let x = Tensor::rand_uniform(&[12, 3, 8, 8], 0.0, 1.0, &mut rng);
    let cfg = EngineConfig::default().with_max_batch(3).with_seed(44);
    let serve = |workers: usize| {
        let mut engine = ShardedEngine::with_factory(
            workers,
            |_| {
                SimBacked::new(
                    rps_net(23, &set),
                    Accelerator::ours().with_search(small),
                    spec.clone(),
                )
            },
            PrecisionPolicy::Random(set.clone()),
            cfg.clone(),
        );
        let _ = engine.serve(&x);
        let stats = engine.stats();
        let shards = engine.shutdown();
        (stats, shards)
    };
    let (base, _) = serve(1);
    assert!(base.cost.modeled);
    assert_eq!(base.cost.frames, 12);
    for workers in [2usize, 8] {
        let (stats, shards) = serve(workers);
        assert_eq!(stats.requests, base.requests);
        assert_eq!(stats.cost.frames, base.cost.frames);
        assert_eq!(
            stats.cost.cycles.to_bits(),
            base.cost.cycles.to_bits(),
            "cycle ledger diverged at {} workers",
            workers
        );
        assert_eq!(
            stats.cost.energy.to_bits(),
            base.cost.energy.to_bits(),
            "energy ledger diverged at {} workers",
            workers
        );
        assert_eq!(
            stats.cost.fps.to_bits(),
            base.cost.fps.to_bits(),
            "fps ledger diverged at {} workers",
            workers
        );
        // Hardware accounting still adds up: per-shard ledgers sum to the
        // merged totals (up to floating-point association).
        let shard_total: f64 = shards.iter().map(|s| s.ledger().cycles).sum();
        assert!(
            (shard_total - stats.cost.cycles).abs() <= 1e-9 * stats.cost.cycles.abs(),
            "shard ledgers {} vs merged {}",
            shard_total,
            stats.cost.cycles
        );
        let shard_frames: usize = shards.iter().map(|s| s.ledger().frames).sum();
        assert_eq!(shard_frames, stats.cost.frames);
    }
}

/// FNV-1a (the scheme of `tests/kernel_golden.rs`) over every response's
/// id, precision and logit bit patterns, in response order.
fn schedule_fingerprint(responses: &[two_in_one_accel::engine::Response]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in responses {
        eat(&r.id.to_le_bytes());
        eat(&[r.precision.map_or(0, |p| p.bits())]);
        for v in r.logits.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// A `Random` burst: one `serve`, then a submit stream split by a partial
/// flush. (A macro, like `adaptive_burst!`, so that this file also compiles
/// against the commit the fingerprints were taken on, where the two engines
/// were unrelated types.)
macro_rules! random_burst {
    ($engine:expr, $x:expr) => {{
        let (engine, x) = (&mut $engine, &$x);
        let mut out = engine.serve(x);
        for i in 0..x.shape()[0] {
            engine.submit(x.index_axis0(i));
            if i == 4 {
                out.extend(engine.flush());
            }
        }
        out.extend(engine.flush());
        schedule_fingerprint(&out)
    }};
}

/// An adaptive burst through a fixed controller/SLO script: the level
/// walks 0..=4 and back, submissions alternate floored / plain / pinned,
/// a geometry-changing submission is rejected mid-stream, and one flush
/// lands while degraded.
macro_rules! adaptive_burst {
    ($engine:expr, $x:expr) => {{
        let (engine, x) = (&mut $engine, &$x);
        let mut out = Vec::new();
        for i in 0..x.shape()[0] {
            engine.set_degrade_level([0u8, 1, 2, 3, 4, 9, 2, 0][i % 8]);
            let img = x.index_axis0(i);
            match i % 4 {
                0 => engine.try_submit_floored(img, Some(Precision::new(6))),
                1 => engine.try_submit(img),
                2 => engine.try_submit_pinned(img, [Some(Precision::new(5)), None][i / 4 % 2]),
                _ => engine.try_submit_floored(img, None),
            }
            .expect("valid image");
            if i == 5 {
                assert!(engine.try_submit(Tensor::zeros(&[8, 3, 8])).is_err());
                out.extend(engine.flush());
            }
        }
        out.extend(engine.flush());
        schedule_fingerprint(&out)
    }};
}

/// Pinned on the commit *before* `Engine` and `ShardedEngine` were folded
/// into one coordinator, then re-pinned once, to the `native` values of the
/// commit before `scalar` began serving the same integer network. The other
/// tests here compare the engines to each other, which a bug in the code
/// they now share would pass; these values do not move with it. They hold
/// under either `TIA_KERNEL`. Do not regenerate casually.
#[test]
fn schedule_and_logits_match_the_pre_unification_fingerprints() {
    const RANDOM: u64 = 0x8bff_9e6d_05a8_5a9c;
    const ADAPTIVE: u64 = 0x39a2_eb9f_face_eb19;
    let set = PrecisionSet::range(4, 8);
    let x = Tensor::rand_uniform(&[14, 3, 8, 8], 0.0, 1.0, &mut SeededRng::new(41));
    let cfg = EngineConfig::default().with_max_batch(4).with_seed(97);
    let random = || PrecisionPolicy::Random(set.clone());

    let mut inline = Engine::new(rps_net(40, &set), random(), cfg.clone());
    assert_eq!(random_burst!(inline, x), RANDOM, "inline, random");
    let mut inline = Engine::new(rps_net(40, &set), random(), cfg.clone());
    assert_eq!(adaptive_burst!(inline, x), ADAPTIVE, "inline, adaptive");
    for workers in [1usize, 2, 5] {
        let mut sharded =
            ShardedEngine::with_factory(workers, |_| rps_net(40, &set), random(), cfg.clone());
        assert_eq!(
            random_burst!(sharded, x),
            RANDOM,
            "{workers} workers, random"
        );
        let mut sharded =
            ShardedEngine::with_factory(workers, |_| rps_net(40, &set), random(), cfg.clone());
        assert_eq!(
            adaptive_burst!(sharded, x),
            ADAPTIVE,
            "{workers} workers, adaptive"
        );
    }
}
