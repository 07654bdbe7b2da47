//! Table 3: RPS on SVHN(-like) — natural + PGD-20/PGD-100 robust
//! accuracy for PreActResNet-18 and WideResNet-32 under FGSM / FGSM-RS /
//! PGD-7 adversarial training, with and without RPS.

use tia_bench::run_rps_table;
use tia_data::DatasetProfile;

fn main() {
    run_rps_table(
        "Table 3: RPS on SVHN-like",
        &DatasetProfile::svhn_like(),
        "Paper (Tab.3, full scale): RPS adds +8.9~15.4 points of PGD-20",
    );
}
