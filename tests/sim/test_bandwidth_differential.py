"""Differential tests: one shared rate per event vs the frozen per-flow model.

:class:`SharedBandwidth` evaluates the fair share once per event and
schedules the next completion from the smallest remainder;
:class:`repro.physicsref.ReferenceSharedBandwidth` evaluates one rate per
flow and divides every remainder.  Under random arrivals, per-flow caps and
an HDD-style efficiency curve, both must finish every transfer at the same
float time and in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physicsref import ReferenceSharedBandwidth
from repro.sim import Environment, SharedBandwidth


def hdd_efficiency(n_flows):
    """Aggregate throughput falls as concurrent streams thrash the head."""
    return 1.0 if n_flows <= 1 else max(0.3, 1.0 / (1.0 + 0.17 * (n_flows - 1)))


def _run(cls, rate, per_flow_rate, efficiency, flows):
    env = Environment()
    link = cls(env, rate=rate, per_flow_rate=per_flow_rate,
               efficiency=efficiency)
    completions = []

    def flow(index, delay, amounts):
        yield env.timeout(delay)
        for amount in amounts:
            record = yield link.transfer(amount, tag=index)
            completions.append((record.tag, record.start, record.end))

    for index, (delay, amounts) in enumerate(flows):
        env.process(flow(index, delay, amounts))
    env.run()
    return completions, link.total_transferred, env.now


flow_specs = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
        st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e7),
                           st.sampled_from((1.0, 4096.0, 1 << 20))),
                 min_size=1, max_size=4)),
    min_size=1, max_size=12)


@given(
    rate=st.floats(min_value=1.0, max_value=1e9),
    cap_fraction=st.one_of(st.none(), st.floats(min_value=0.01, max_value=2.0)),
    thrashing=st.booleans(),
    flows=flow_specs,
)
@settings(max_examples=200, deadline=None)
def test_shared_rate_matches_per_flow_reference_exactly(
        rate, cap_fraction, thrashing, flows):
    per_flow_rate = None if cap_fraction is None else rate * cap_fraction
    efficiency = hdd_efficiency if thrashing else None
    fast = _run(SharedBandwidth, rate, per_flow_rate, efficiency, flows)
    ref = _run(ReferenceSharedBandwidth, rate, per_flow_rate, efficiency,
               flows)
    # Same completion order, same start and end floats, same final clock.
    assert fast == ref
    # Conservation: everything requested was transferred, summed in the
    # completion order both sides share.
    completed = [amount for _, amounts in flows for amount in amounts
                 if amount > 0]
    assert len(fast[0]) == sum(len(amounts) for _, amounts in flows)
    assert fast[1] == ref[1]
    assert abs(fast[1] - sum(completed)) <= 1e-9 * max(1.0, sum(completed))


def test_cpu_pool_oversubscription_matches_reference():
    """CPU pools (cap 1 core per task) take the same capped path."""
    flows = [(0.1 * i, [0.5 + i, 2.0]) for i in range(9)]
    fast = _run(SharedBandwidth, 4.0, 1.0, None, flows)
    ref = _run(ReferenceSharedBandwidth, 4.0, 1.0, None, flows)
    assert fast == ref
