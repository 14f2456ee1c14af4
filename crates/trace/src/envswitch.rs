//! The one environment kill-switch parser for the whole workspace.
//!
//! Both photonn switches (`PHOTONN_SIMD` and `PHOTONN_TRACE`) funnel
//! through this module — re-exported as `photonn_math::envswitch` for
//! the crates that sit above `photonn-math` — so each accepts the same
//! case-insensitive vocabulary:
//!
//! * truthy: `1`, `on`, `true`, `yes`
//! * falsy: `0`, `off`, `false`, `no`
//!
//! [`engaged`] maps a variable to "is this switch thrown?": unset means
//! the caller's default, a recognised value means itself, and an
//! *unrecognised* non-empty value means engaged — setting a switch to
//! garbage fails loud (the switch takes effect) rather than silently
//! doing nothing. It lives in `photonn-trace` because the tracer's own
//! kill switch must parse before `photonn-math` is even linked, and
//! `photonn-math` depends on this crate, not the other way around.

/// Parse one switch value. `Some(true)` / `Some(false)` for the
/// recognised vocabulary (case-insensitive, surrounding whitespace
/// ignored), `None` otherwise.
pub fn parse(value: &str) -> Option<bool> {
    let v = value.trim();
    for t in ["1", "on", "true", "yes"] {
        if v.eq_ignore_ascii_case(t) {
            return Some(true);
        }
    }
    for f in ["0", "off", "false", "no"] {
        if v.eq_ignore_ascii_case(f) {
            return Some(false);
        }
    }
    None
}

/// Is the switch named `name` thrown? Unset (or invalid UTF-8) yields
/// `default`; a recognised value yields itself; any other value counts
/// as engaged.
pub fn engaged(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => parse(&v).unwrap_or(true),
    }
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn vocabulary_is_case_insensitive() {
        for v in ["1", "on", "ON", " On ", "TRUE", "yes"] {
            assert_eq!(parse(v), Some(true), "{v:?}");
        }
        for v in ["0", "off", "OFF", " oFf ", "FALSE", "no"] {
            assert_eq!(parse(v), Some(false), "{v:?}");
        }
        for v in ["", "2", "enabled", "offf"] {
            assert_eq!(parse(v), None, "{v:?}");
        }
    }
}
