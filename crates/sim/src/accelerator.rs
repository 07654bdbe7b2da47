//! Ready-made accelerator instances and the network-level simulation loop.

use crate::report::NetworkPerf;
use std::collections::HashMap;
use tia_accel::{MacKind, PrecisionPair};
use tia_dataflow::{ArchConfig, EvoSearch, PerfReport, SearchMode, Workload};
use tia_nn::workload::{LayerSpec, NetworkSpec};
use tia_quant::PrecisionSet;
use tia_tensor::SeededRng;

/// A simulated accelerator: architecture + dataflow optimizer + result
/// cache.
///
/// Layer results are memoized on `(layer, precision)` so sweeps over many
/// precisions and networks stay fast; the cache key includes everything that
/// affects the prediction.
#[derive(Debug)]
pub struct Accelerator {
    name: String,
    arch: ArchConfig,
    search: EvoSearch,
    seed: u64,
    cache: HashMap<(LayerSpec, u8, u8), PerfReport>,
}

impl Accelerator {
    /// The paper's 2-in-1 Accelerator: spatial-temporal MAC unit (Opt-1 +
    /// Opt-2), full evolutionary dataflow optimization.
    pub fn ours() -> Self {
        Self::with_kind("Ours", MacKind::spatial_temporal(), SearchMode::Full)
    }

    /// Stripes baseline: bit-serial units; the paper optimizes its dataflow
    /// with the same optimizer ("we ... optimize its dataflow with our
    /// automated optimizer", §4.1.2).
    pub fn stripes() -> Self {
        Self::with_kind("Stripes", MacKind::Temporal, SearchMode::Full)
    }

    /// Bit Fusion baseline: spatial units; its published dataflow tool only
    /// explores the global-buffer loop order (§3.1.3).
    pub fn bitfusion() -> Self {
        Self::with_kind("Bit Fusion", MacKind::Spatial, SearchMode::GbOrderOnly)
    }

    /// An ablation instance of the proposed design with chosen shift-add
    /// optimizations.
    pub fn ours_ablation(opt1: bool, opt2: bool) -> Self {
        Self::with_kind(
            &format!("Ours(opt1={},opt2={})", opt1, opt2),
            MacKind::SpatialTemporal { opt1, opt2 },
            SearchMode::Full,
        )
    }

    /// Builds an accelerator under the paper's shared area budget.
    pub fn with_kind(name: &str, kind: MacKind, mode: SearchMode) -> Self {
        Self {
            name: name.into(),
            arch: ArchConfig::paper_budget(kind),
            search: EvoSearch::default().with_mode(mode),
            seed: 0xACCE1,
            cache: HashMap::new(),
        }
    }

    /// Uses a lighter/heavier dataflow search. Clears the cache.
    pub fn with_search(mut self, search: EvoSearch) -> Self {
        self.search = search;
        self.cache.clear();
        self
    }

    /// Accelerator display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Architecture config.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Simulates one layer at a precision (dataflow optimized, memoized).
    pub fn simulate_layer(&mut self, layer: &LayerSpec, p: PrecisionPair) -> PerfReport {
        let key = (layer.clone(), p.w, p.a);
        if let Some(hit) = self.cache.get(&key) {
            return *hit;
        }
        let wl = Workload::new(layer, p);
        // Deterministic per-layer seed so results don't depend on call order.
        let mut rng = SeededRng::new(self.seed ^ hash_key(&key));
        let result = self.search.run(&self.arch, &wl, &mut rng);
        self.cache.insert(key, result.perf);
        result.perf
    }

    /// Simulates a whole network at one precision.
    pub fn simulate_network(&mut self, net: &NetworkSpec, p: PrecisionPair) -> NetworkPerf {
        let layers: Vec<PerfReport> = net
            .layers
            .iter()
            .map(|l| self.simulate_layer(l, p))
            .collect();
        NetworkPerf::from_layers(
            self.name.clone(),
            net.name.clone(),
            p,
            self.arch.freq_ghz,
            &layers,
        )
    }

    /// Mean FPS and energy over a precision set — the cost of RPS inference,
    /// which switches uniformly within the set (Fig. 11, §4.3.2).
    pub fn average_over_set(&mut self, net: &NetworkSpec, set: &PrecisionSet) -> (f64, f64) {
        let mut fps = 0.0;
        let mut energy = 0.0;
        for p in set.iter() {
            let perf = self.simulate_network(net, PrecisionPair::symmetric(p.bits()));
            fps += perf.fps;
            energy += perf.total_energy();
        }
        let n = set.len() as f64;
        (fps / n, energy / n)
    }
}

fn hash_key(key: &(LayerSpec, u8, u8)) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_search() -> EvoSearch {
        EvoSearch {
            population: 12,
            cycles: 4,
            mode: SearchMode::Full,
        }
    }

    #[test]
    fn ours_beats_bitfusion_at_4bit_resnet18() {
        let net = NetworkSpec::resnet18_cifar();
        let p = PrecisionPair::symmetric(4);
        let mut ours = Accelerator::ours().with_search(small_search());
        let mut bf = Accelerator::bitfusion();
        let po = ours.simulate_network(&net, p);
        let pb = bf.simulate_network(&net, p);
        assert!(
            po.fps > pb.fps,
            "ours {} FPS should beat Bit Fusion {} FPS at 4-bit",
            po.fps,
            pb.fps
        );
        assert!(po.total_energy() < pb.total_energy());
    }

    #[test]
    fn bitfusion_beats_stripes_below_8bit_and_loses_at_16() {
        // The Fig. 2 bottleneck: spatial wins at low precision, temporal
        // scales past 8-bit.
        let net = NetworkSpec::alexnet();
        let mut bf = Accelerator::bitfusion();
        let mut st = Accelerator::stripes().with_search(small_search());
        let bf4 = bf.simulate_network(&net, PrecisionPair::symmetric(4));
        let st4 = st.simulate_network(&net, PrecisionPair::symmetric(4));
        assert!(
            bf4.fps > st4.fps,
            "BF should win at 4-bit: {} vs {}",
            bf4.fps,
            st4.fps
        );
        let bf16 = bf.simulate_network(&net, PrecisionPair::symmetric(16));
        let st16 = st.simulate_network(&net, PrecisionPair::symmetric(16));
        assert!(
            st16.fps > bf16.fps,
            "Stripes should win at 16-bit: {} vs {}",
            st16.fps,
            bf16.fps
        );
    }

    #[test]
    fn cache_makes_repeat_simulation_identical() {
        let net = NetworkSpec::resnet18_cifar();
        let p = PrecisionPair::symmetric(8);
        let mut ours = Accelerator::ours().with_search(small_search());
        let a = ours.simulate_network(&net, p);
        let b = ours.simulate_network(&net, p);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.total_energy(), b.total_energy());
    }

    #[test]
    fn average_over_set_between_extremes() {
        let net = NetworkSpec::resnet18_cifar();
        let mut ours = Accelerator::ours().with_search(small_search());
        let set = PrecisionSet::new(&[4, 8]);
        let (avg_fps, avg_e) = ours.average_over_set(&net, &set);
        let f4 = ours.simulate_network(&net, PrecisionPair::symmetric(4)).fps;
        let f8 = ours.simulate_network(&net, PrecisionPair::symmetric(8)).fps;
        assert!(avg_fps <= f4.max(f8) && avg_fps >= f4.min(f8));
        assert!(avg_e > 0.0);
    }

    #[test]
    fn dram_dominates_energy_breakdown() {
        // Fig. 9: DRAM access dominates total energy.
        let net = NetworkSpec::alexnet();
        let mut ours = Accelerator::ours().with_search(small_search());
        let perf = ours.simulate_network(&net, PrecisionPair::symmetric(4));
        let dram = perf.mem_energy[0];
        assert!(
            dram > perf.total_energy() * 0.4,
            "DRAM should dominate: {} of {}",
            dram,
            perf.total_energy()
        );
    }
}
