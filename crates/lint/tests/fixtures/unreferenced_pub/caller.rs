//! Fixture: the one caller.

use crate::Greet;

impl crate::api::OnlyImpled {
    fn unused(&self) {}
}

fn call() -> u32 {
    crate::used_elsewhere();
    crate::api::Greeter.greet()
}
