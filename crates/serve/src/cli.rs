//! Tiny `--flag value` argument parsing shared by the `tia-served` and
//! `tia-loadgen` binaries (the workspace is dependency-free, so no clap).

use crate::load::Ramp;
use crate::wire::{Class, WirePolicy};
use tia_engine::PrecisionPolicy;
use tia_quant::{Precision, PrecisionSet};

/// Parsed command line: `--flag value` pairs plus bare `--switch` flags.
pub struct Args {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`: `known_flags` take a value, and
    /// `known_switches` are value-less. Returns `Err` naming the offending
    /// token on anything unrecognized — a typo'd flag must fail loudly, not
    /// silently fall back to a default.
    pub fn parse(known_flags: &[&str], known_switches: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(tok) = it.next() {
            let Some(flag) = tok.strip_prefix("--") else {
                return Err(format!("unexpected argument: {tok}"));
            };
            if known_switches.contains(&flag) {
                switches.push(flag.to_string());
            } else if known_flags.contains(&flag) {
                let Some(value) = it.next() else {
                    return Err(format!("--{flag} needs a value"));
                };
                pairs.push((flag.to_string(), value));
            } else {
                return Err(format!("unknown flag: --{flag}"));
            }
        }
        Ok(Self { pairs, switches })
    }

    /// The value of `--flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--flag` parsed as `T`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: could not parse {v:?}")),
        }
    }

    /// Whether the bare switch `--flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }
}

/// Parses a serving policy: `fp32`, `fixedN` (e.g. `fixed8`), or
/// `rpsLO-HI` (e.g. `rps4-8`).
pub fn parse_policy(s: &str) -> Result<PrecisionPolicy, String> {
    if s == "fp32" {
        return Ok(PrecisionPolicy::Fixed(None));
    }
    if let Some(bits) = s.strip_prefix("fixed") {
        let b: u8 = bits.parse().map_err(|_| bad_policy(s))?;
        if !(1..=16).contains(&b) {
            return Err(bad_policy(s));
        }
        return Ok(PrecisionPolicy::Fixed(Some(Precision::new(b))));
    }
    if let Some(range) = s.strip_prefix("rps") {
        let (lo, hi) = range.split_once('-').ok_or_else(|| bad_policy(s))?;
        let (lo, hi): (u8, u8) = (
            lo.parse().map_err(|_| bad_policy(s))?,
            hi.parse().map_err(|_| bad_policy(s))?,
        );
        if !(1..=16).contains(&lo) || !(1..=16).contains(&hi) || lo > hi {
            return Err(bad_policy(s));
        }
        return Ok(PrecisionPolicy::Random(PrecisionSet::range(lo, hi)));
    }
    Err(bad_policy(s))
}

/// Parses a per-request wire policy: `server`, or any [`parse_policy`]
/// form (mapped onto the wire's explicit-policy variants).
pub fn parse_wire_policy(s: &str) -> Result<WirePolicy, String> {
    if s == "server" {
        return Ok(WirePolicy::Server);
    }
    Ok(match parse_policy(s)? {
        PrecisionPolicy::Fixed(p) => WirePolicy::Fixed(p),
        // Degradation is a server-side serving decision; on the wire an
        // explicit RPS set is just a random pin.
        PrecisionPolicy::Random(set) => WirePolicy::Random(set),
    })
}

/// Parses a per-class precision floor: a bit-width `1..=16`, or
/// `none`/`off` for no floor.
pub fn parse_floor(s: &str) -> Result<Option<Precision>, String> {
    if s == "none" || s == "off" {
        return Ok(None);
    }
    match s.parse::<u8>() {
        Ok(b) if (1..=16).contains(&b) => Ok(Some(Precision::new(b))),
        _ => Err(format!("bad floor {s:?}, expected 1..=16, none or off")),
    }
}

/// Parses an open-loop rate ramp: `flat`, `linear:PEAK` (climb to PEAK×
/// the configured rate by the last request), or `square:PEAK:PERIOD`
/// (alternate PERIOD requests at 1× with PERIOD at PEAK×).
pub fn parse_ramp(s: &str) -> Result<Ramp, String> {
    let bad = || format!("bad ramp {s:?}, expected flat, linear:PEAK or square:PEAK:PERIOD");
    if s == "flat" {
        return Ok(Ramp::Flat);
    }
    if let Some(peak) = s.strip_prefix("linear:") {
        let peak: f64 = peak.parse().map_err(|_| bad())?;
        if !(peak.is_finite() && peak >= 1.0) {
            return Err(bad());
        }
        return Ok(Ramp::Linear { peak });
    }
    if let Some(rest) = s.strip_prefix("square:") {
        let (peak, period) = rest.split_once(':').ok_or_else(bad)?;
        let peak: f64 = peak.parse().map_err(|_| bad())?;
        let period: u32 = period.parse().map_err(|_| bad())?;
        if !(peak.is_finite() && peak >= 1.0) || period == 0 {
            return Err(bad());
        }
        return Ok(Ramp::Square { peak, period });
    }
    Err(bad())
}

/// Parses a scheduling class: `normal`, `interactive` or `batch`.
pub fn parse_class(s: &str) -> Result<Class, String> {
    match s {
        "normal" => Ok(Class::Normal),
        "interactive" => Ok(Class::Interactive),
        "batch" => Ok(Class::Batch),
        _ => Err(format!(
            "bad class {s:?}, expected normal, interactive or batch"
        )),
    }
}

/// Parses `C,H,W` (e.g. `3,16,16`) into an image shape.
pub fn parse_shape(s: &str) -> Result<[usize; 3], String> {
    let parts: Vec<usize> = s
        .split(',')
        .map(|p| p.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad shape {s:?}, expected C,H,W"))?;
    match parts.as_slice() {
        [c, h, w] if *c > 0 && *h > 0 && *w > 0 => Ok([*c, *h, *w]),
        _ => Err(format!("bad shape {s:?}, expected C,H,W")),
    }
}

fn bad_policy(s: &str) -> String {
    format!("bad policy {s:?}, expected fp32, fixedN or rpsLO-HI")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_parse() {
        assert_eq!(parse_policy("fp32").unwrap(), PrecisionPolicy::Fixed(None));
        assert_eq!(
            parse_policy("fixed8").unwrap(),
            PrecisionPolicy::Fixed(Some(Precision::new(8)))
        );
        assert_eq!(
            parse_policy("rps4-8").unwrap(),
            PrecisionPolicy::Random(PrecisionSet::range(4, 8))
        );
        assert!(parse_policy("fixed99").is_err());
        assert!(parse_policy("rps8-4").is_err());
        assert!(parse_policy("banana").is_err());
        assert_eq!(parse_wire_policy("server").unwrap(), WirePolicy::Server);
    }

    #[test]
    fn floors_parse() {
        assert_eq!(parse_floor("6").unwrap(), Some(Precision::new(6)));
        assert_eq!(parse_floor("none").unwrap(), None);
        assert_eq!(parse_floor("off").unwrap(), None);
        assert!(parse_floor("0").is_err());
        assert!(parse_floor("17").is_err());
        assert!(parse_floor("six").is_err());
    }

    #[test]
    fn ramps_parse() {
        assert_eq!(parse_ramp("flat").unwrap(), Ramp::Flat);
        assert_eq!(
            parse_ramp("linear:2.5").unwrap(),
            Ramp::Linear { peak: 2.5 }
        );
        assert_eq!(
            parse_ramp("square:4:32").unwrap(),
            Ramp::Square {
                peak: 4.0,
                period: 32
            }
        );
        assert!(parse_ramp("linear:0.5").is_err()); // a ramp never slows down
        assert!(parse_ramp("square:2:0").is_err());
        assert!(parse_ramp("sawtooth:2").is_err());
    }

    #[test]
    fn classes_parse() {
        assert_eq!(parse_class("normal").unwrap(), Class::Normal);
        assert_eq!(parse_class("interactive").unwrap(), Class::Interactive);
        assert_eq!(parse_class("batch").unwrap(), Class::Batch);
        assert!(parse_class("urgent").is_err());
    }

    #[test]
    fn shapes_parse() {
        assert_eq!(parse_shape("3,16,16").unwrap(), [3, 16, 16]);
        assert!(parse_shape("3,16").is_err());
        assert!(parse_shape("3,0,16").is_err());
    }
}
