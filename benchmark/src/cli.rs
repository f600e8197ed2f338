//! Command-line parsing: the driver's contract flags plus the suite
//! flags of `run.sh`.

use crate::spec;

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload W`: one workload; every workload when absent.
    pub workload: Option<String>,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds S`.
    pub seconds: f64,
    /// `--trace 0|1`: run exactly one measurement in this process and
    /// end with the driver's result line. Absent: suite mode.
    pub trace: Option<bool>,
    /// `--quick`: smoke-test sizes.
    pub quick: bool,
    /// `--selfcheck`: the A/A check.
    pub selfcheck: bool,
}

/// The usage text.
pub const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--quick]\n\
       run.sh --workload W --seed N --seconds S --trace 0|1   (one run, driver result line last)\n\
       run.sh --selfcheck [--seed N] [--seconds S] [--quick]\n\
workloads: batch_powerlaw batch_road serve_mixed update_stream";

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args {
            workload: None,
            seed: spec::DEFAULT_SEED,
            seconds: spec::DEFAULT_SECONDS,
            trace: None,
            quick: false,
            selfcheck: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    if !spec::WORKLOADS.iter().any(|(w, _)| *w == name) {
                        return Err(format!("unknown workload {name}"));
                    }
                    parsed.workload = Some(name);
                }
                "--seed" => {
                    parsed.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_string())?;
                }
                "--seconds" => {
                    let seconds: f64 = value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds takes a number".to_string())?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    parsed.seconds = seconds;
                }
                "--trace" => {
                    parsed.trace = Some(match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    });
                }
                "--traced" => parsed.trace = Some(true),
                "--quick" => parsed.quick = true,
                "--selfcheck" => parsed.selfcheck = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if parsed.trace.is_some() && parsed.workload.is_none() {
            return Err("--trace needs --workload".to_string());
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn driver_invocation_parses() {
        let args = parse("--workload serve_mixed --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("serve_mixed"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, Some(true)));
    }

    #[test]
    fn defaults_and_errors() {
        let args = parse("").unwrap();
        assert_eq!(
            (args.seed, args.trace, args.quick),
            (spec::DEFAULT_SEED, None, false)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 1").is_err());
        assert!(parse("--trace 2 --workload batch_road").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
