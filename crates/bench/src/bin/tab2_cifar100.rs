//! Table 2: RPS on CIFAR-100(-like) — natural + PGD-20/PGD-100 robust
//! accuracy for PreActResNet-18 and WideResNet-32 under FGSM / FGSM-RS /
//! PGD-7 adversarial training, with and without RPS.

use tia_bench::run_rps_table;
use tia_data::DatasetProfile;

fn main() {
    run_rps_table(
        "Table 2: RPS on CIFAR-100-like",
        &DatasetProfile::cifar100_like(),
        "Paper (Tab.2, full scale): RPS adds +9.4~13.8 points of PGD-20",
    );
}
