"""Isolation as a tested property: module (s, p) is a function of sequence
s's group prefix ``perm[:p+1]`` alone, and a FedCIO cluster's model is a
function of its own clients' data alone.

Perturbing the training features of one group must leave every module
whose prefix excludes that group byte-identical, and must change at least
one module whose prefix includes it. This holds whether the sequences train
one at a time (``train_fedsgt``) or stacked, round r of several sequences in
one kernel call (``train_prefixes``). The exactness audit cannot check this
itself: it retrains through the same runner as training, so a leak between
stacked members could be in both.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsgt.fltrain
from fedsgt.dataset import synth_dataset
from fedsgt.fltrain import TrainConfig, _build_stack, train_fedsgt, train_prefixes
from fedsgt.grouping import build_grouping
from fedsgt.sequencing import build_sequences
from fedsgt.unlearn import cluster_of, train_clusters

ACCEPT = dict(clients=10, samples_per_client=200, dim=20, classes=5,
              slices_per_client=5, test_samples=500)


def perturbed(ds, ref, row, delta):
    """A copy of ``ds`` with ``delta`` added to the features of one record
    (``row`` modulo the slice length) of slice ``ref``."""
    train_x = [list(slices) for slices in ds.train_x]
    x = train_x[ref.client_id][ref.slice_idx].copy()
    x[row % len(x)] += delta
    train_x[ref.client_id][ref.slice_idx] = x
    return dataclasses.replace(ds, train_x=train_x)


def trained(ds, plan, seqs, cfg, stacked):
    """Every module's (group, samples, weight bytes), per sequence."""
    if stacked:
        jobs = {sid: (perm, len(perm)) for sid, perm in enumerate(seqs.perms)}
        stacks = list(train_prefixes(ds, plan, jobs, cfg).values())
    else:
        stacks = train_fedsgt(ds, plan, seqs, cfg).modules
    return [[(m.group, m.samples, m.weights.tobytes()) for m in stack]
            for stack in stacks]


def assert_isolated(before, after, perms, group):
    changed = 0
    for sid, perm in enumerate(perms):
        assert len(before[sid]) == len(after[sid]) == len(perm)
        for phase, (old, new) in enumerate(zip(before[sid], after[sid])):
            if group in perm[:phase + 1]:
                changed += old != new
            else:
                assert old == new, (sid, phase)
    assert changed


@st.composite
def systems(draw):
    """Small FedSGT runs, unbalanced plans included: the slice count need
    not be a multiple of L, and slices may differ in size."""
    groups = draw(st.integers(1, 6))
    budget = draw(st.integers(1, min(8, math.factorial(groups))))
    clients = draw(st.integers(1, 4))
    slices = draw(st.integers(-(-groups // clients), -(-groups // clients) + 2))
    seed = draw(st.integers(0, 1000))
    ds = synth_dataset(clients=clients,
                       samples_per_client=draw(st.integers(slices, 24)),
                       dim=draw(st.integers(3, 4)), classes=draw(st.integers(2, 3)),
                       alpha=draw(st.sampled_from([None, 0.5])), seed=seed,
                       slices_per_client=slices, test_samples=10)
    plan = build_grouping(ds.slice_catalog(), groups, seed)
    seqs = build_sequences(groups, budget, seed)
    cfg = TrainConfig(epochs=draw(st.integers(1, 2)),
                      rounds_per_phase=draw(st.integers(1, 2)),
                      batch_size=draw(st.integers(2, 16)),
                      lr=draw(st.sampled_from([0.1, 0.5])), seed=seed)
    return ds, plan, seqs, cfg


@pytest.mark.parametrize("stacked", [False, True], ids=["per-sequence", "stacked"])
@settings(max_examples=25, deadline=None)
@given(system=systems(), group=st.integers(0, 5), member=st.integers(0, 10),
       row=st.integers(0, 30), delta=st.sampled_from([-2.0, 1e-3, 0.5]))
def test_perturbing_a_group_changes_only_modules_that_hold_it(
        stacked, system, group, member, row, delta):
    ds, plan, seqs, cfg = system
    group %= plan.group_count
    members = plan.groups[group]
    changed = perturbed(ds, members[member % len(members)], row, delta)
    assert_isolated(trained(ds, plan, seqs, cfg, stacked),
                    trained(changed, plan, seqs, cfg, stacked), seqs.perms, group)


def test_isolation_at_the_acceptance_point(monkeypatch):
    """L = B = 10, trained stacked. Some stack must hold a sequence whose
    prefix holds the perturbed group beside one whose prefix does not, or
    the stacked form would check nothing. A stack's runs are keyed
    (sequence, phase), a lone run's rounds (sequence, phase, round)."""
    ds = synth_dataset(alpha=0.3, seed=0, **ACCEPT)
    plan = build_grouping(ds.slice_catalog(), 10, 0)
    seqs = build_sequences(10, 10, 0)
    cfg = TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=0)
    group = 4
    calls = []

    def recording(runs, *args):
        calls.append([key[:2] for *_, key in runs])
        return _build_stack(runs, *args)

    monkeypatch.setattr(fedsgt.fltrain, "_build_stack", recording)
    before = trained(ds, plan, seqs, cfg, stacked=True)
    after = trained(perturbed(ds, plan.groups[group][2], 7, 0.5), plan, seqs,
                    cfg, stacked=True)
    assert_isolated(before, after, seqs.perms, group)
    holds = {(sid, phase) for sid, perm in enumerate(seqs.perms)
             for phase in range(len(perm)) if group in perm[:phase + 1]}
    assert any(len({key in holds for key in keys}) == 2 for keys in calls)


@settings(max_examples=25, deadline=None)
@given(clients=st.integers(1, 6), clusters=st.integers(1, 6),
       client=st.integers(0, 5), row=st.integers(0, 30),
       rounds=st.integers(1, 2), seed=st.integers(0, 1000))
def test_perturbing_a_client_changes_only_its_cluster(clients, clusters, client,
                                                      row, rounds, seed):
    clusters = min(clusters, clients)
    client %= clients
    ds = synth_dataset(clients=clients, samples_per_client=12, dim=3, classes=3,
                       alpha=0.5, seed=seed, slices_per_client=2, test_samples=10)
    cfg = TrainConfig(epochs=1, lr=0.2, batch_size=5, seed=seed)
    ref = ds.slice_catalog()[2 * client + row % 2][0]
    before = train_clusters(ds, clusters, cfg, rounds)
    after = train_clusters(perturbed(ds, ref, row, 0.5), clusters, cfg, rounds)
    assert before.keys() == after.keys() == set(range(clusters))
    for cid in before:
        same = before[cid].tobytes() == after[cid].tobytes()
        assert same == (cid != cluster_of(client, clusters)), cid
