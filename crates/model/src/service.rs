use serde::{Deserialize, Serialize};

use crate::{FailureModel, Flow, ModelError, Probability, Result, ServiceId};

/// A *simple service* (paper §3.1): no cascading requests, reliability given
/// by a published closed-form [`FailureModel`] of one abstract demand
/// parameter.
///
/// # Examples
///
/// ```
/// use archrel_model::{FailureModel, SimpleService};
///
/// let cpu = SimpleService::new(
///     "cpu1",
///     "n",
///     FailureModel::ExponentialRate { rate: 1e-9, capacity: 1e9 },
/// );
/// let p = cpu.failure_probability(1e6).unwrap();
/// assert!(p.value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimpleService {
    id: ServiceId,
    formal_param: String,
    model: FailureModel,
}

impl SimpleService {
    /// Creates a simple service with one abstract formal parameter (the
    /// demand: operations for CPUs, bytes for networks).
    pub fn new(
        id: impl Into<ServiceId>,
        formal_param: impl Into<String>,
        model: FailureModel,
    ) -> Self {
        SimpleService {
            id: id.into(),
            formal_param: formal_param.into(),
            model,
        }
    }

    /// The service identifier.
    pub fn id(&self) -> &ServiceId {
        &self.id
    }

    /// Name of the abstract demand parameter.
    pub fn formal_param(&self) -> &str {
        &self.formal_param
    }

    /// The published failure law.
    pub fn model(&self) -> &FailureModel {
        &self.model
    }

    /// Failure probability when serving `demand` work units.
    ///
    /// # Errors
    ///
    /// See [`FailureModel::failure_probability`].
    pub fn failure_probability(&self, demand: f64) -> Result<Probability> {
        self.model.failure_probability(demand)
    }
}

/// A *composite service* (paper §3.2): a service whose analytic interface is
/// a probabilistic [`Flow`] of cascading requests over its formal parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompositeService {
    id: ServiceId,
    formal_params: Vec<String>,
    flow: Flow,
}

impl CompositeService {
    /// Creates a composite service.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MalformedFlow`] when a flow transition or call
    /// references a formal parameter the service does not declare (free
    /// parameters must be a subset of `formal_params`).
    pub fn new(id: impl Into<ServiceId>, formal_params: Vec<String>, flow: Flow) -> Result<Self> {
        let id = id.into();
        // Every expression in the flow may only mention declared formals.
        let declared: std::collections::BTreeSet<&str> =
            formal_params.iter().map(String::as_str).collect();
        // The context text is only formatted once a check has failed.
        let check = |expr: &archrel_expr::Expr, what: &dyn Fn() -> String| -> Result<()> {
            match expr
                .free_params()
                .into_iter()
                .find(|p| !declared.contains(p.as_str()))
            {
                None => Ok(()),
                Some(p) => Err(ModelError::MalformedFlow {
                    service: id.to_string(),
                    reason: format!("{} references undeclared parameter `{p}`", what()),
                }),
            }
        };
        for t in flow.transitions() {
            check(&t.probability, &|| {
                format!("transition `{}` -> `{}`", t.from, t.to)
            })?;
        }
        for state in flow.states() {
            for call in &state.calls {
                for (name, expr) in &call.actual_params {
                    check(expr, &|| {
                        format!("actual parameter `{name}` of `{}`", call.target)
                    })?;
                }
                if let Some(c) = &call.connector {
                    for (name, expr) in &c.actual_params {
                        check(expr, &|| {
                            format!("connector parameter `{name}` of `{}`", c.connector)
                        })?;
                    }
                }
            }
        }
        Ok(CompositeService {
            id,
            formal_params,
            flow,
        })
    }

    /// The service identifier.
    pub fn id(&self) -> &ServiceId {
        &self.id
    }

    /// Declared formal parameters.
    pub fn formal_params(&self) -> &[String] {
        &self.formal_params
    }

    /// The usage-profile flow.
    pub fn flow(&self) -> &Flow {
        &self.flow
    }
}

/// Any service of the unified model (paper §2: resources *and* connectors
/// both offer services; §3 splits them into simple and composite).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Service {
    /// A simple service with a closed-form failure law.
    Simple(SimpleService),
    /// A composite service with a request flow.
    Composite(CompositeService),
}

impl Service {
    /// The service identifier.
    pub fn id(&self) -> &ServiceId {
        match self {
            Service::Simple(s) => s.id(),
            Service::Composite(s) => s.id(),
        }
    }

    /// Formal parameter names (one abstract demand parameter for simple
    /// services).
    pub fn formal_params(&self) -> Vec<&str> {
        match self {
            Service::Simple(s) => vec![s.formal_param()],
            Service::Composite(s) => s.formal_params().iter().map(String::as_str).collect(),
        }
    }

    /// The flow, when composite.
    pub fn as_composite(&self) -> Option<&CompositeService> {
        match self {
            Service::Composite(s) => Some(s),
            Service::Simple(_) => None,
        }
    }

    /// The failure law, when simple.
    pub fn as_simple(&self) -> Option<&SimpleService> {
        match self {
            Service::Simple(s) => Some(s),
            Service::Composite(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowBuilder, FlowState, ServiceCall, StateId};
    use archrel_expr::Expr;

    fn flow_calling(param_expr: Expr) -> Flow {
        FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![ServiceCall::new("cpu").with_param("n", param_expr)],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap()
    }

    #[test]
    fn composite_accepts_declared_params() {
        let s = CompositeService::new(
            "sort",
            vec!["list".to_string()],
            flow_calling(Expr::param("list") * Expr::param("list").log2()),
        )
        .unwrap();
        assert_eq!(s.formal_params(), &["list".to_string()]);
        assert_eq!(s.id().as_str(), "sort");
    }

    #[test]
    fn composite_rejects_undeclared_params() {
        let err = CompositeService::new(
            "sort",
            vec!["list".to_string()],
            flow_calling(Expr::param("size")),
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
        assert!(
            err.to_string()
                .contains("actual parameter `n` of `cpu` references undeclared parameter `size`"),
            "{err}"
        );
    }

    #[test]
    fn composite_rejects_undeclared_params_in_transitions() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .state(FlowState::new("b", vec![]))
            .transition(StateId::Start, "a", Expr::param("q"))
            .transition(StateId::Start, "b", Expr::one() - Expr::param("q"))
            .transition("a", StateId::End, Expr::one())
            .transition("b", StateId::End, Expr::one())
            .build()
            .unwrap();
        let err = CompositeService::new("svc", vec![], flow).unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
        assert!(
            err.to_string()
                .contains("transition `Start` -> `a` references undeclared parameter `q`"),
            "{err}"
        );
    }

    #[test]
    fn composite_rejects_undeclared_connector_params() {
        use crate::ConnectorBinding;
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![ServiceCall::new("sort")
                    .with_param("list", Expr::param("list"))
                    .via(ConnectorBinding::new("rpc").with_param("ip", Expr::param("bytes")))],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let err = CompositeService::new("search", vec!["list".to_string()], flow).unwrap_err();
        assert!(
            err.to_string().contains(
                "connector parameter `ip` of `rpc` references undeclared parameter `bytes`"
            ),
            "{err}"
        );
    }

    #[test]
    fn service_accessors() {
        let simple = Service::Simple(SimpleService::new("cpu", "n", FailureModel::Perfect));
        assert!(simple.as_simple().is_some());
        assert!(simple.as_composite().is_none());
        assert_eq!(simple.formal_params(), vec!["n"]);

        let composite = Service::Composite(
            CompositeService::new("s", vec![], flow_calling(Expr::num(1.0))).unwrap(),
        );
        assert!(composite.as_composite().is_some());
        assert_eq!(composite.id().as_str(), "s");
    }
}
