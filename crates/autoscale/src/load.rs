//! Observed and forecast load descriptions.

/// Aggregate offered load over one adjustment interval.
///
/// This is the quantity the predictors forecast and the performance
/// interpolator consumes: how many requests per second arrive, and how
/// large they are on average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Request arrivals per second.
    pub request_rate: f64,
    /// Mean prompt length in tokens.
    pub mean_input_tokens: f64,
    /// Mean generated-output length in tokens.
    pub mean_output_tokens: f64,
}

impl LoadSample {
    /// The zero-load sample.
    pub const ZERO: LoadSample = LoadSample {
        request_rate: 0.0,
        mean_input_tokens: 0.0,
        mean_output_tokens: 0.0,
    };

    /// Mean total KV footprint of one request at completion.
    pub fn mean_total_tokens(&self) -> f64 {
        self.mean_input_tokens + self.mean_output_tokens
    }

    /// Clamps every component to be finite and non-negative.
    pub fn sanitized(self) -> LoadSample {
        let fix = |v: f64| if v.is_finite() && v > 0.0 { v } else { 0.0 };
        LoadSample {
            request_rate: fix(self.request_rate),
            mean_input_tokens: fix(self.mean_input_tokens),
            mean_output_tokens: fix(self.mean_output_tokens),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_demands() {
        let s = LoadSample {
            request_rate: 4.0,
            mean_input_tokens: 100.0,
            mean_output_tokens: 300.0,
        };
        assert_eq!(s.mean_total_tokens(), 400.0);
    }

    #[test]
    fn sanitize_clamps_bad_values() {
        let s = LoadSample {
            request_rate: f64::NAN,
            mean_input_tokens: -3.0,
            mean_output_tokens: 5.0,
        }
        .sanitized();
        assert_eq!(s.request_rate, 0.0);
        assert_eq!(s.mean_input_tokens, 0.0);
        assert_eq!(s.mean_output_tokens, 5.0);
    }
}
