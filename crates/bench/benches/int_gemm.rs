//! Microbenchmark of the integer GEMM on the served wide model's shapes:
//! every conv of PreActResNet-18 at width 16 on 32×32 inputs that takes the
//! integer path, replayed through `gemm_quant_strided` under the NCHW plane
//! strides the conv layer uses and under row-major strides, on every SIMD
//! body the host can run. Prints µs per image and GMAC/s per shape.
//!
//! `cargo bench -p tia-bench --bench int_gemm`

use tia_bench::harness::{bench, black_box};
use tia_quant::{gemm_quant_strided, OutStrides, QuantizedWeights};
use tia_tensor::{simd, SeededRng};

/// Images per call: the middle of the 2–32-image batches the engine forms.
const BATCH: usize = 8;

/// `(name, output pixels per image, depth c·kh·kw, output channels, layers
/// of this shape)`. Stage 1 is four 3×3 convs 16 → 16 on 32×32; each later
/// stage halves the side and doubles the width, its first conv reading the
/// previous width at stride 2. The stem (depth 27) and the 1×1 shortcuts of
/// stages 2 and 3 (depth 16, 32) stay on the f32 path; the stage-4 shortcut
/// (depth 64) takes the integer path above 4 bits.
const SHAPES: [(&str, usize, usize, usize, usize); 8] = [
    ("s1.conv", 1024, 144, 16, 4),
    ("s2b1.c1", 256, 144, 32, 1),
    ("s2.conv", 256, 288, 32, 3),
    ("s3b1.c1", 64, 288, 64, 1),
    ("s3.conv", 64, 576, 64, 3),
    ("s4b1.sc", 16, 64, 128, 1),
    ("s4b1.c1", 16, 576, 128, 1),
    ("s4.conv", 16, 1152, 128, 3),
];

fn main() {
    let mut rng = SeededRng::new(33);
    for ops in simd::available() {
        let mut totals = [0.0f64; 2];
        for (name, rows, k, n, layers) in SHAPES {
            let m = BATCH * rows;
            let levels: Vec<u8> = (0..m * k).map(|_| rng.below(256) as u8).collect();
            let weights: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
            let w = QuantizedWeights::quantize_rows(&weights, n, k, 8);
            let scales: Vec<f32> = (0..BATCH).map(|_| rng.uniform_in(0.001, 0.1)).collect();
            let zps: Vec<i32> = (0..BATCH).map(|_| rng.below(256) as i32).collect();
            let bias: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let mut out = vec![0.0f32; m * n];
            let strides = [
                ("planes", OutStrides::planes(rows, n)),
                ("row-major", OutStrides::row_major(rows, n)),
            ];
            for ((label, s), total) in strides.into_iter().zip(&mut totals) {
                let r = bench(&format!("int_gemm/{}/{name}/{label}", ops.name()), || {
                    gemm_quant_strided(
                        ops,
                        m,
                        k,
                        black_box(&levels),
                        &scales,
                        &zps,
                        &w,
                        Some(&bias),
                        &mut out,
                        s,
                    );
                    black_box(out[0])
                });
                let us_per_image = r.ns_per_iter / 1e3 / BATCH as f64;
                let gmacs = (m * k * n) as f64 / r.ns_per_iter;
                *total += us_per_image * layers as f64;
                println!(
                    "    {name:<8} {rows:>5}x{k:<5}x{n:<4} {label:<9} \
                     {us_per_image:>9.2} us/image {gmacs:>7.1} GMAC/s"
                );
            }
        }
        println!(
            "int_gemm/{}: all integer convs {:.1} us/image planes, {:.1} row-major",
            ops.name(),
            totals[0],
            totals[1]
        );
    }
}
