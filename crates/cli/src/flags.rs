//! Tiny flag parser for the `scd` binary (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: subcommand plus `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    map: HashMap<String, String>,
}

/// A flag error with a user-facing message.
#[derive(Debug)]
pub struct FlagError(pub String);

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FlagError {}

impl Flags {
    /// Parses an argument iterator (after the subcommand).
    pub fn parse(items: impl IntoIterator<Item = String>) -> Self {
        let mut out = Flags::default();
        let mut it = items.into_iter().peekable();
        while let Some(item) = it.next() {
            if let Some(name) = item.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked"),
                    _ => "true".into(),
                };
                out.map.insert(name.to_string(), value);
            } else {
                out.positional.push(item);
            }
        }
        out
    }

    /// Required flag, parsed as `T`.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, FlagError> {
        let raw = self
            .map
            .get(name)
            .ok_or_else(|| FlagError(format!("missing required flag --{name}")))?;
        raw.parse().map_err(|_| FlagError(format!("--{name}: cannot parse '{raw}'")))
    }

    /// Optional flag with default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, FlagError> {
        match self.map.get(name) {
            None => Ok(default),
            Some(raw) => {
                raw.parse().map_err(|_| FlagError(format!("--{name}: cannot parse '{raw}'")))
            }
        }
    }

    /// Raw string value, if present.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Boolean presence.
    pub fn has(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Fails on a flag that `usage` does not name, naming it (the first
    /// in name order when there are several).
    pub fn check_known(&self, usage: &str) -> Result<(), FlagError> {
        let named = |name: &str| {
            let mut words = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            words.any(|w| w.strip_prefix("--") == Some(name))
        };
        match self.map.keys().filter(|name| !named(name)).min() {
            Some(name) => Err(FlagError(format!("unknown flag --{name}"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Flags {
        Flags::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn required_and_optional() {
        let f = parse("--trace t.bin --interval 300 --verbose");
        assert_eq!(f.require::<String>("trace").unwrap(), "t.bin");
        assert_eq!(f.get("interval", 60u32).unwrap(), 300);
        assert_eq!(f.get("missing", 7u32).unwrap(), 7);
        assert!(f.has("verbose"));
    }

    #[test]
    fn missing_required_is_error() {
        let f = parse("");
        assert!(f.require::<String>("trace").is_err());
    }

    #[test]
    fn unknown_flag_is_named() {
        let f = parse("--trace t.bin --shards 4 --report-out r.txt");
        assert!(f.check_known("--trace FILE [--shards N] [--report-out F]").is_ok());
        let err = f.check_known("--trace FILE [--trace-shards N]").unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --report-out");
    }

    #[test]
    fn unparseable_reports_flag_name() {
        let f = parse("--interval banana");
        let err = f.require::<u32>("interval").unwrap_err();
        assert!(err.to_string().contains("--interval"));
    }
}
