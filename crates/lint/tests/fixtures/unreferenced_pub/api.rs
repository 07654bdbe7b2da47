//! Fixture: items reached (or not) from the other files.

pub fn reexported_only() {} //~ unreferenced-pub

/// Used by `caller.rs`.
pub struct Greeter;

// A trait-impl method is not `pub`, so it is never a candidate.
impl crate::Greet for Greeter {
    fn greet(&self) -> u32 {
        7
    }
}

/// Named elsewhere only by its own `impl` header.
pub struct OnlyImpled; //~ unreferenced-pub
