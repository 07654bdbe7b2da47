//! Table 1: RPS on CIFAR-10(-like) — natural + PGD-20/PGD-100 robust
//! accuracy for PreActResNet-18 and WideResNet-32 under FGSM / FGSM-RS /
//! PGD-7 adversarial training, with and without RPS.

use tia_bench::run_rps_table;
use tia_data::DatasetProfile;

fn main() {
    run_rps_table(
        "Table 1: RPS on CIFAR-10-like",
        &DatasetProfile::cifar10_like(),
        "Paper (Tab.1, full scale): RPS adds +12.1~22.6 points of PGD-20",
    );
}
