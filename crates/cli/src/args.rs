//! A small, dependency-free argument parser for the `nhood` CLI:
//! `--key value` flags plus positional arguments, with typed accessors
//! and an unknown-flag check.

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Flags that take a value vs bare switches must be declared up front so
/// `--flag value` parsing is unambiguous.
pub struct Spec {
    /// Flags that consume the next token as their value.
    pub valued: &'static [&'static str],
    /// Boolean switches.
    pub switches: &'static [&'static str],
}

impl Args {
    /// Parses raw tokens against a spec.
    pub fn parse(tokens: impl IntoIterator<Item = String>, spec: &Spec) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if spec.valued.contains(&name) {
                    let v = it.next().ok_or_else(|| ArgError(format!("--{name} needs a value")))?;
                    out.flags.insert(name.to_string(), v);
                } else if spec.switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else {
                    return Err(ArgError(format!("unknown flag --{name}")));
                }
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// Positional argument `i`.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn pos_len(&self) -> usize {
        self.positional.len()
    }

    /// String flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Typed flag with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError(format!("--{name}: cannot parse '{v}'"))),
        }
    }

    /// Required typed flag.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v =
            self.get(name).ok_or_else(|| ArgError(format!("missing required flag --{name}")))?;
        v.parse().map_err(|_| ArgError(format!("--{name}: cannot parse '{v}'")))
    }

    /// `true` if the switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Parses a human-friendly byte size: `64`, `4K`, `2M` (powers of 1024).
pub fn parse_bytes(s: &str) -> Result<usize, ArgError> {
    let s = s.trim();
    let (n, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1usize << 10),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1usize << 20),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1),
    };
    n.parse().ok().and_then(|v| mult.checked_mul(v)).ok_or(ArgError(format!("bad byte size '{s}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec { valued: &["n", "delta", "out"], switches: &["verbose"] };

    fn parse(toks: &[&str]) -> Result<Args, ArgError> {
        Args::parse(toks.iter().map(|s| s.to_string()), &SPEC)
    }

    #[test]
    fn positional_and_flags() {
        let a = parse(&["gen", "er", "--n", "64", "--verbose", "file.txt"]).unwrap();
        assert_eq!(a.pos(0), Some("gen"));
        assert_eq!(a.pos(1), Some("er"));
        assert_eq!(a.pos(2), Some("file.txt"));
        assert_eq!(a.pos_len(), 3);
        assert_eq!(a.get("n"), Some("64"));
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn typed_accessors() {
        let a = parse(&["--n", "64", "--delta", "0.3"]).unwrap();
        assert_eq!(a.get_parsed("n", 0usize).unwrap(), 64);
        assert_eq!(a.get_parsed("missing", 7usize).unwrap(), 7);
        assert!((a.require::<f64>("delta").unwrap() - 0.3).abs() < 1e-12);
        assert!(a.get("out").is_none());
        assert!(a.require::<usize>("nope").is_err());
        assert!(a.get_parsed::<usize>("delta", 0).is_err());
    }

    #[test]
    fn errors() {
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&["--n"]).is_err());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(parse_bytes("64").unwrap(), 64);
        assert_eq!(parse_bytes("4K").unwrap(), 4096);
        assert_eq!(parse_bytes("2m").unwrap(), 2 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("x").is_err());
        assert!(parse_bytes("4X").is_err());
    }

    #[test]
    fn an_overflowing_byte_size_is_refused() {
        // 2^34 · 2^30 = 2^64 bytes: one past usize::MAX, never a wrapped size
        assert!(parse_bytes("17179869184G").is_err());
        assert_eq!(parse_bytes("17179869183G").unwrap(), usize::MAX - (1 << 30) + 1);
    }
}
