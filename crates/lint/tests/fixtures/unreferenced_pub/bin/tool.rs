//! Fixture: binaries are exempt — rustc's `dead_code` covers them.

pub fn helper_nobody_calls() {}

fn main() {}
