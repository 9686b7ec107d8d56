//! Output checks: every reply must be a correct kernel of the known optimal
//! length, certified minimal, from the expected source.

use sortsynth_cache::KernelQuery;
use sortsynth_isa::{IsaMode, Program};
use sortsynth_service::{ReplySource, Response};

use crate::service::certifies_minimal;

/// Optimal kernel lengths from the paper (n = 2, 3, 4 for cmp/cmov and
/// min/max). Written down by hand, never taken from the synthesizer.
pub fn optimal_len(n: u8, mode: IsaMode) -> Option<usize> {
    match (n, mode) {
        (2, IsaMode::Cmov) => Some(4),
        (3, IsaMode::Cmov) => Some(11),
        (4, IsaMode::Cmov) => Some(20),
        (2, IsaMode::MinMax) => Some(3),
        (3, IsaMode::MinMax) => Some(8),
        (4, IsaMode::MinMax) => Some(15),
        _ => None,
    }
}

fn source_name(source: ReplySource) -> &'static str {
    match source {
        ReplySource::Computed => "computed",
        ReplySource::Cache => "cache",
        ReplySource::Coalesced => "coalesced",
    }
}

/// Checks one reply to a synth request for `query`: a correct kernel (every
/// input permutation) of the paper's optimal length, certified exactly as
/// the query's configuration allows, from the `expected` source. Returns
/// the parsed kernel, or why the reply is wrong.
pub fn check_reply(
    query: &KernelQuery,
    response: &Response,
    expected: ReplySource,
) -> Result<Program, String> {
    let reply = match response {
        Response::Synth(reply) => reply,
        other => return Err(format!("not a synth reply: {other:?}")),
    };
    let text = reply.program.as_deref().ok_or("reply holds no program")?;
    let machine = query.machine();
    let program = machine
        .parse_program(text)
        .map_err(|e| format!("unparsable program: {e}"))?;
    if !machine.is_correct(&program) {
        return Err(format!("program does not sort: {text}"));
    }
    let optimum = optimal_len(query.n, query.mode)
        .ok_or_else(|| format!("no known optimum for n={}", query.n))?;
    if program.len() != optimum || reply.found_len != Some(optimum as u32) {
        return Err(format!(
            "length {} (reported {:?}), optimum is {optimum}",
            program.len(),
            reply.found_len
        ));
    }
    // Optimality itself is checked against the paper's lengths above; the
    // flag must claim exactly what the query's configuration guarantees.
    if reply.minimal_certified != certifies_minimal(query) {
        return Err(format!(
            "minimal_certified is {}, the configuration guarantees {}",
            reply.minimal_certified,
            certifies_minimal(query)
        ));
    }
    if reply.source != expected {
        return Err(format!(
            "source {}, expected {}",
            source_name(reply.source),
            source_name(expected)
        ));
    }
    Ok(program)
}

/// Attempted and failed requests of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one request's outcome; a failure's reason goes to stderr.
    pub fn record<T>(&mut self, outcome: &Result<T, String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("# failed request: {why}");
            }
        }
    }

    /// Share of attempted requests that completed correctly.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_service::SynthReply;

    /// A reply as the service gives it for a `KernelQuery::best` query,
    /// which the engine never certifies minimal.
    fn reply(program: &str, found_len: u32, source: ReplySource) -> Response {
        Response::Synth(SynthReply {
            program: Some(program.to_string()),
            found_len: Some(found_len),
            minimal_certified: false,
            source,
            search_millis: 1,
            distance_table_skipped: false,
            backend: None,
        })
    }

    const OPTIMAL_N2: &str = "mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1";

    #[test]
    fn optimal_reply_passes() {
        let query = KernelQuery::best(2, 1, IsaMode::Cmov);
        let ok = check_reply(
            &query,
            &reply(OPTIMAL_N2, 4, ReplySource::Cache),
            ReplySource::Cache,
        );
        assert_eq!(ok.map(|p| p.len()), Ok(4));
    }

    #[test]
    fn forged_wrong_length_reply_is_a_failure() {
        let query = KernelQuery::best(2, 1, IsaMode::Cmov);
        // Sorts correctly, but one instruction longer than the optimum.
        let padded = format!("{OPTIMAL_N2}; mov s1 r1");
        let mut tally = Tally::default();
        tally.record(&check_reply(
            &query,
            &reply(OPTIMAL_N2, 4, ReplySource::Computed),
            ReplySource::Computed,
        ));
        tally.record(&check_reply(
            &query,
            &reply(&padded, 5, ReplySource::Computed),
            ReplySource::Computed,
        ));
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(tally.ok_ratio(), 0.5);
    }

    #[test]
    fn wrong_source_and_non_synth_replies_fail() {
        let query = KernelQuery::best(2, 1, IsaMode::Cmov);
        let cached = reply(OPTIMAL_N2, 4, ReplySource::Cache);
        assert!(check_reply(&query, &cached, ReplySource::Computed).is_err());
        assert!(check_reply(&query, &Response::Overloaded, ReplySource::Cache).is_err());
        let mut overclaimed = cached.clone();
        if let Response::Synth(r) = &mut overclaimed {
            r.minimal_certified = true;
        }
        assert!(check_reply(&query, &overclaimed, ReplySource::Cache).is_err());
        let unsorted = reply(
            "mov s1 r2; cmp r1 r2; cmovg r2 r1; mov r1 s1",
            4,
            ReplySource::Cache,
        );
        assert!(check_reply(&query, &unsorted, ReplySource::Cache).is_err());
    }
}
