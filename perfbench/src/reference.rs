//! The expected response to every request, computed in process from the
//! same snapshot the server loads and through the same public functions
//! the server calls.

use crate::workload::{Kind, Plan};
use lsd_core::Lsd;
use lsd_serve::{json, media};

pub struct Reference {
    /// Per input: the `/v1/match` body, then the `/v1/explain` body.
    bodies: Vec<[String; 2]>,
}

impl Reference {
    pub fn new(model: &Lsd, plan: &Plan) -> Result<Reference, String> {
        let mut bodies = Vec::with_capacity(plan.inputs.len());
        for input in &plan.inputs {
            let request = media::parse_request(&input.as_request(Kind::Match))
                .map_err(|e| format!("{}: request does not decode: {e}", input.source.name))?;
            let outcome = model
                .match_source(&request.source)
                .map_err(|e| format!("{}: direct match failed: {e}", input.source.name))?;
            bodies.push([
                json::match_body(&plan.slug, &outcome),
                json::explain_body(&plan.slug, &outcome),
            ]);
        }
        Ok(Reference { bodies })
    }

    pub fn body(&self, input: usize, kind: Kind) -> &str {
        &self.bodies[input][usize::from(kind == Kind::Explain)]
    }
}

/// A deep copy through the snapshot form, as the server's retrain worker
/// makes one.
pub fn copy(model: &Lsd) -> Result<Lsd, String> {
    model
        .to_saved()
        .map(Lsd::from_saved)
        .map_err(|e| format!("cannot snapshot the model: {e}"))
}
