//! Fixture: the cross-file `unreferenced-pub` rule. The tree is this
//! directory; the expectation tags of all its files are checked together.

// A re-export is not a use, so `reexported_only` stays a finding.
pub use crate::api::{reexported_only, Greeter};

/// Called from `caller.rs`: no finding.
pub fn used_elsewhere() {}

/// Called only from this file's tests.
pub fn used_by_own_tests() {} //~ unreferenced-pub

/// Named elsewhere only by a plain `use`, then used for its method.
pub trait Greet {
    fn greet(&self) -> u32;
}

// tia-lint: allow(unreferenced-pub, the fixture's suppression case)
pub const ALLOWED: u32 = 1;

// tia-lint: allow(unreferenced-pub) //~ annotation
pub const UNREASONED: u32 = 2; //~ unreferenced-pub

#[cfg(test)]
mod tests {
    #[test]
    fn own_test() {
        super::used_by_own_tests();
    }
}
