"""Federated training: aggregation math, determinism, exact bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsgt.fltrain
from fedsgt.core import (ServiceUnavailable, TrainerSpec, TrainingError,
                         keyed_stream)
from fedsgt.dataset import synth_dataset
from fedsgt.fltrain import (CostMeter, TrainConfig, _build_stack, _softmax,
                            _step_stack, client_data, evaluate, fedavg_lockstep,
                            fedavg_train, federated_round, matrix_accuracy,
                            predict_proba, sequence_logits, train_fedsgt,
                            train_prefixes, train_sequence)
from fedsgt.grouping import GroupingPlan, SliceRef, build_grouping
from fedsgt.sequencing import (apply_deletion, build_sequences, fresh_state,
                               select_allseq, select_longseq, select_minseq,
                               state_from_deleted)
from fedsgt.unlearn import exactness_audit


def data(seed=0, **kw):
    defaults = dict(clients=4, samples_per_client=60, dim=8, classes=3,
                    alpha=None, seed=seed, slices_per_client=2,
                    test_samples=150)
    defaults.update(kw)
    return synth_dataset(**defaults)


def system(seed=0, epochs=2, **kw):
    ds = data(seed=seed, **kw)
    plan = build_grouping(ds.slice_catalog(), 4, seed)
    seqs = build_sequences(4, 4, seed)
    cfg = TrainConfig(epochs=epochs, lr=0.1, batch_size=16, seed=seed)
    return ds, plan, seqs, cfg


class TestLocalUpdate:
    def test_single_full_batch_step_matches_formula(self):
        """From a zero model one gradient step is closed-form: softmax is
        uniform, so W <- lr * (onehot - 1/k)^T X / n. Aggregation weights
        clients by sample count."""
        rng = np.random.default_rng(0)
        k, d = 3, 5
        xa, ya = rng.normal(size=(100, d)), rng.integers(0, k, 100)
        xb, yb = rng.normal(size=(300, d)), rng.integers(0, k, 300)

        def expected_update(x, y, lr):
            onehot = np.eye(k)[y]
            grad = (np.full((len(y), k), 1 / k) - onehot).T @ x / len(y)
            return -lr * grad

        cfg = TrainConfig(epochs=1, lr=0.2, batch_size=1000, seed=7)
        active = np.zeros((k, d))
        result = federated_round(active, np.zeros((k, d)),
                                 {0: (xa, ya), 1: (xb, yb)}, cfg,
                                 round_key=(0, 1, 0))
        want = (100 * expected_update(xa, ya, 0.2)
                + 300 * expected_update(xb, yb, 0.2)) / 400
        assert np.allclose(result, want, atol=1e-12)

    def test_identical_clients_give_identical_update(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(50, 4)), rng.integers(0, 2, 50)
        cfg = TrainConfig(epochs=3, lr=0.1, batch_size=8, seed=1)
        one = federated_round(np.zeros((2, 4)), np.zeros((2, 4)),
                              {0: (x, y)}, cfg, round_key=(0, 0, 0))
        both = federated_round(np.zeros((2, 4)), np.zeros((2, 4)),
                               {0: (x, y), 1: (x.copy(), y.copy())}, cfg,
                               round_key=(0, 0, 0))
        assert np.array_equal(one, both)

    def test_round_requires_participants(self):
        cfg = TrainConfig(seed=0)
        with pytest.raises(TrainingError):
            federated_round(np.zeros((2, 3)), np.zeros((2, 3)), {}, cfg,
                            round_key=(0, 0, 0))

    def test_loss_decreases_over_rounds(self):
        rng = np.random.default_rng(5)
        means = np.array([[3.0, 0, 0, 0], [0, 3.0, 0, 0]])
        y = rng.integers(0, 2, 200)
        x = means[y] + rng.normal(size=(200, 4))
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=32, seed=2)

        def loss(w):
            probs = _softmax(x @ w.T)
            return float(-np.mean(np.log(probs[np.arange(len(y)), y] + 1e-300)))

        w = np.zeros((2, 4))
        losses = [loss(w)]
        for t in range(6):
            w = w + federated_round(np.zeros_like(w), w, {0: (x, y)}, cfg,
                                    round_key=(0, 0, t))
            losses.append(loss(w))
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def reference_round(active, frozen, data, cfg, round_key, meter=None,
                    cost_modules=1):
    """Client-by-client form of a federated round: each participant runs
    its local epochs alone, then the server sums the sample-weighted
    updates in ascending client id."""
    participants = sorted(data)
    counts = np.array([len(data[c][1]) for c in participants],
                      dtype=np.float64)
    updates = np.empty((len(participants),) + active.shape)
    for i, c in enumerate(participants):
        x, y = data[c]
        rng = keyed_stream((cfg.seed, *round_key))
        a = active.copy()
        n = len(y)
        onehot = np.zeros((n, a.shape[0]))
        onehot[np.arange(n), y] = 1.0
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb = x[idx]
                probs = _softmax(xb @ (frozen + a).T)
                grad = (probs - onehot[idx]).T @ xb / len(idx)
                a -= cfg.lr * grad
        updates[i] = a
        if meter is not None:
            meter.charge(samples=n, params=active.size, modules=cost_modules,
                         epochs=cfg.epochs)
    weights = counts / counts.sum()
    return np.sum(weights[:, None, None] * updates, axis=0)


class TestStackedRound:
    """federated_round steps all clients together; it must give the bytes
    of the client-by-client reference round."""

    K, D = 3, 6

    def clients(self, sizes, seed=0, ids=None):
        rng = np.random.default_rng(seed)
        ids = range(len(sizes)) if ids is None else ids
        return {c: (rng.normal(size=(n, self.D)), rng.integers(0, self.K, n))
                for c, n in zip(ids, sizes)}

    def assert_same_round(self, data, cfg, active=None, frozen=None,
                          cost_modules=1):
        if active is None:
            active = np.zeros((self.K, self.D))
        if frozen is None:
            frozen = np.zeros((self.K, self.D))
        got_meter, want_meter = CostMeter(), CostMeter()
        got = federated_round(active, frozen, data, cfg, (2, 1, 0), got_meter,
                              cost_modules=cost_modules)
        want = reference_round(active, frozen, data, cfg, (2, 1, 0),
                               want_meter, cost_modules=cost_modules)
        assert got.tobytes() == want.tobytes()
        assert got_meter.updates == want_meter.updates

    @pytest.mark.parametrize("sizes, batch_size", [
        ((70, 33, 16, 5, 64, 1), 16),   # ragged, not multiples of the batch
        ((9, 4, 12), 50),               # batch larger than every client
        ((40, 40, 23), 8),              # two clients of equal size
        ((37,), 10),                    # a single client
    ])
    def test_matches_reference(self, sizes, batch_size):
        cfg = TrainConfig(epochs=3, lr=0.2, batch_size=batch_size, seed=4)
        self.assert_same_round(self.clients(sizes), cfg)

    def test_zero_epochs(self):
        cfg = TrainConfig(epochs=0, lr=0.1, batch_size=8, seed=0)
        active = np.random.default_rng(2).normal(size=(self.K, self.D))
        self.assert_same_round(self.clients((10, 3, 7)), cfg, active=active)

    def test_nonzero_frozen_and_active(self):
        rng = np.random.default_rng(3)
        cfg = TrainConfig(epochs=2, lr=0.3, batch_size=7, seed=5)
        self.assert_same_round(self.clients((30, 18, 7, 18)), cfg,
                               active=rng.normal(size=(self.K, self.D)),
                               frozen=rng.normal(size=(self.K, self.D)),
                               cost_modules=4)

    def test_sparse_unordered_client_ids(self):
        cfg = TrainConfig(epochs=2, lr=0.1, batch_size=6, seed=9)
        data = self.clients((13, 40, 6, 25), ids=(17, 3, 42, 8))
        assert list(data) != sorted(data)
        self.assert_same_round(data, cfg)

    def test_non_finite_feature_raises(self):
        data = self.clients((20, 12))
        data[1][0][4, 2] = np.nan
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8, seed=0)
        with pytest.raises(TrainingError, match="non-finite"):
            federated_round(np.zeros((self.K, self.D)),
                            np.zeros((self.K, self.D)), data, cfg, (0, 0, 0))


def lockstep_rounds(rounds, cfg, meter=None, cost_modules=1):
    """Independent rounds ``(active, frozen, data, round_key)`` built into
    one stack and stepped once."""
    stack = _build_stack([(frozen, data, key) for _, frozen, data, key in rounds],
                         cfg)
    return _step_stack(stack, [active for active, *_ in rounds],
                       [key for *_, key in rounds], cfg, meter, cost_modules)


class TestLockstepRounds:
    """Independent rounds stepped in one stack must each give the bytes and
    the cost of the client-by-client reference round run alone."""

    K, D = 3, 6

    def clients(self, sizes, seed):
        rng = np.random.default_rng(seed)
        return {c: (rng.normal(size=(n, self.D)), rng.integers(0, self.K, n))
                for c, n in enumerate(sizes)}

    def rounds(self, sizes_per_round, keys=None, nonzero=False):
        rng = np.random.default_rng(7)
        out = []
        for r, sizes in enumerate(sizes_per_round):
            active, frozen = (rng.normal(size=(2, self.K, self.D)) if nonzero
                              else np.zeros((2, self.K, self.D)))
            key = (5, r, 0) if keys is None else keys[r]
            out.append((active, frozen, self.clients(sizes, seed=r), key))
        return out

    def assert_same_rounds(self, rounds, cfg, cost_modules=1):
        got_meter = CostMeter()
        got = lockstep_rounds(rounds, cfg, got_meter, cost_modules)
        assert len(got) == len(rounds)
        total = 0
        for result, (active, frozen, data, key) in zip(got, rounds):
            meter = CostMeter()
            want = reference_round(active, frozen, data, cfg, key, meter,
                                   cost_modules=cost_modules)
            assert result.tobytes() == want.tobytes()
            total += meter.updates
        assert got_meter.updates == total

    def test_ragged_sizes_over_three_rounds(self):
        cfg = TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=4)
        self.assert_same_rounds(self.rounds([(70, 33, 16, 5), (64, 1, 33),
                                             (40, 9)]), cfg, cost_modules=3)

    @pytest.mark.parametrize("keys", [((1, 2, 3), (1, 2, 3)),
                                      ((1, 2, 3), (1, 2, 4))],
                             ids=["equal-keys", "different-keys"])
    def test_rounds_sharing_a_size(self, keys):
        cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8, seed=1)
        self.assert_same_rounds(self.rounds([(40, 23), (12, 40)], keys=keys),
                                cfg)

    def test_nonzero_active_and_frozen_per_round(self):
        cfg = TrainConfig(epochs=2, lr=0.3, batch_size=7, seed=5)
        rounds = self.rounds([(30, 18, 7), (18, 25), (7,)], nonzero=True)
        actives = [a.tobytes() for a, *_ in rounds]
        assert len(set(actives)) == len(rounds)
        self.assert_same_rounds(rounds, cfg)

    def test_round_with_one_client(self):
        cfg = TrainConfig(epochs=3, lr=0.2, batch_size=10, seed=2)
        self.assert_same_rounds(self.rounds([(37,), (20, 20, 5)]), cfg)

    def test_zero_epochs(self):
        cfg = TrainConfig(epochs=0, lr=0.1, batch_size=8, seed=0)
        self.assert_same_rounds(self.rounds([(10, 3), (7,)], nonzero=True), cfg)

    def test_non_finite_feature_in_one_round_raises(self):
        rounds = self.rounds([(20, 12), (16, 9)])
        rounds[1][2][1][0][4, 2] = np.nan
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8, seed=0)
        with pytest.raises(TrainingError, match="non-finite"):
            lockstep_rounds(rounds, cfg)

    def test_stack_built_once_steps_every_round(self):
        # One build, then rounds that each start from the last round's
        # averages under new keys: every round must be the reference round
        # of its own inputs, the batch orders drawn afresh into the reused
        # buffer.
        cfg = TrainConfig(epochs=2, lr=0.2, batch_size=9, seed=6)
        rounds = self.rounds([(41, 9, 17), (17, 30), (5,)], nonzero=True)
        stack = _build_stack([(f, d, k) for _, f, d, k in rounds], cfg)
        actives = [a for a, *_ in rounds]
        for t in range(3):
            keys = [(*key, t) for *_, key in rounds]
            got = _step_stack(stack, actives, keys, cfg, None, 1)
            for result, active, (_, frozen, data, _), key in zip(
                    got, actives, rounds, keys):
                want = reference_round(active, frozen, data, cfg, key)
                assert result.tobytes() == want.tobytes(), t
            actives = got

    def test_runs_sharing_a_key_and_sizes(self):
        # Runs with one round key and equal sizes (FedRetrain's refits)
        # reuse one draw; each run must still be its reference round.
        cfg = TrainConfig(epochs=3, lr=0.1, batch_size=8, seed=2)
        rounds = self.rounds([(30, 12), (30, 11), (12, 30, 30)],
                             keys=[(9, 0)] * 3, nonzero=True)
        self.assert_same_rounds(rounds, cfg)

    @pytest.mark.parametrize("data, message", [
        ({}, "no participants"),
        ({0: (np.zeros((0, 6)), np.zeros(0, dtype=int))}, "empty data")])
    def test_build_rejects_a_run_without_rows(self, data, message):
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8, seed=0)
        runs = [(np.zeros((self.K, self.D)), self.clients((4,), seed=0), (0,)),
                (np.zeros((self.K, self.D)), data, (1,))]
        with pytest.raises(TrainingError, match=message):
            _build_stack(runs, cfg)


def textbook_softmax(z):
    e = np.exp(z - z.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


class TestSoftmax:
    """_softmax is byte-identical to the textbook formula on C-ordered values
    at every class count, whatever the input's layout, and leaves its input
    alone. Training, the audit, the baselines and serving share it, so its
    bytes are the bank bytes."""

    def assert_textbook(self, z):
        before = z.copy()
        got = _softmax(z)
        assert got.shape == z.shape
        assert got.flags.c_contiguous
        # The textbook's own bytes depend on layout from k = 8: numpy sums
        # the class axis of an F-ordered array in another order.
        want = textbook_softmax(np.ascontiguousarray(z))
        assert got.tobytes() == want.tobytes()
        assert z.tobytes() == before.tobytes()

    @pytest.mark.parametrize("k", [*range(1, 65), 127, 128, 129, 200, 300])
    def test_matches_textbook(self, k):
        rng = np.random.default_rng(k)
        self.assert_textbook(rng.normal(scale=4.0, size=k))
        self.assert_textbook(rng.normal(scale=4.0, size=(37, k)))
        self.assert_textbook(rng.normal(scale=4.0, size=(3, 11, k)))
        wide = rng.normal(scale=4.0, size=(29, 2 * k + 1))
        view = wide[::2, 1::2]  # strided in both axes
        assert not view.flags.c_contiguous
        self.assert_textbook(view)
        self.assert_textbook(rng.normal(scale=4.0, size=(k, 23)).T)

    @pytest.mark.parametrize("k", (1, 5, 8, 9, 16, 33, 64, 129))
    def test_layout_does_not_change_bytes(self, k):
        z = np.random.default_rng(200 + k).normal(scale=4.0, size=(23, k))
        wide = np.zeros((46, 3 * k))
        wide[::2, ::3] = z
        layouts = [z, np.asfortranarray(z), wide[::2, ::3]]
        got = [_softmax(v).tobytes() for v in layouts]
        assert got[1] == got[0] and got[2] == got[0]

    @pytest.mark.parametrize("k", (1, 2, 5, 7, 8, 9, 16, 33, 64))
    def test_special_values_match_textbook(self, k):
        rng = np.random.default_rng(100 + k)
        rows = []
        for special in (np.nan, np.inf, -np.inf, 0.0, -0.0):
            for col in {0, k // 2, k - 1}:
                row = rng.normal(size=k)
                row[col] = special
                rows.append(row)
            rows.append(np.full(k, special))
        zeros = np.zeros(k)
        zeros[::2] = -0.0
        rows.append(zeros)
        mixed = rng.normal(size=k)
        mixed[::3] = np.inf
        mixed[1::3] = -np.inf
        rows.append(mixed)
        with np.errstate(all="ignore"):
            self.assert_textbook(np.array(rows))

    def test_nan_signs_keep_positions(self):
        # a row holding a NaN with its sign bit set may come out with either
        # sign bit (IEEE 754 leaves it open); where a NaN sits does not change
        z = np.array([[-np.nan, 1.0, 2.0, 3.0, np.nan],
                      [1.0, -np.nan, 2.0, 3.0, 4.0],
                      [0.5, 1.0, 2.0, 3.0, 4.0]])
        with np.errstate(all="ignore"):
            got, want = _softmax(z), textbook_softmax(z)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[2].tobytes() == want[2].tobytes()


class TestClientData:
    def test_order_removed_prefix_and_emptied_clients(self):
        ds = data(clients=3)  # two slices of 30 samples per client
        refs = [SliceRef(1, 1), SliceRef(0, 0), SliceRef(1, 0), SliceRef(2, 0)]
        got = client_data(ds, refs, {SliceRef(1, 1): 10, SliceRef(2, 0): 30})
        assert list(got) == [1, 0]  # client 2 lost its only listed slice
        x1, y1 = got[1]
        assert x1.tobytes() == np.concatenate(
            [ds.train_x[1][1][10:], ds.train_x[1][0]]).tobytes()
        assert y1.tobytes() == np.concatenate(
            [ds.train_y[1][1][10:], ds.train_y[1][0]]).tobytes()
        assert got[0][0].tobytes() == ds.train_x[0][0].tobytes()
        assert list(client_data(ds, refs)) == [1, 0, 2]


class TestSequenceTraining:
    def test_zero_epochs_leaves_zero_modules(self):
        ds, plan, seqs, _ = system(epochs=0)
        cfg = TrainConfig(epochs=0, lr=0.1, batch_size=16, seed=0)
        modules = train_sequence(ds, plan, seqs.perms[0], cfg)
        assert len(modules) == 4
        for m in modules:
            assert not m.weights.any()

    def test_module_metadata(self):
        ds, plan, seqs, cfg = system()
        modules = train_sequence(ds, plan, seqs.perms[1], cfg,
                                 sequence_index=1)
        assert [m.group for m in modules] == list(seqs.perms[1])
        # samples record the cumulative prefix size at each phase
        sizes = [plan.group_samples(g) for g in seqs.perms[1]]
        assert [m.samples for m in modules] == np.cumsum(sizes).tolist()

    def test_prefix_retraining_bit_exact(self):
        ds, plan, seqs, cfg = system(seed=6)
        full = train_sequence(ds, plan, seqs.perms[2], cfg, sequence_index=2)
        prefix = train_sequence(ds, plan, seqs.perms[2], cfg,
                                sequence_index=2, upto_phase=2)
        assert len(prefix) == 2
        for a, b in zip(prefix, full[:2]):
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_full_training_deterministic(self):
        ds, plan, seqs, cfg = system(seed=8)
        m1 = train_fedsgt(ds, plan, seqs, cfg)
        m2 = train_fedsgt(ds, plan, seqs, cfg)
        for sa, sb in zip(m1.modules, m2.modules):
            for a, b in zip(sa, sb):
                assert a.weights.tobytes() == b.weights.tobytes()

    def test_accuracy_on_separable_data(self):
        ds, plan, seqs, cfg = system(seed=1, epochs=3)
        model = train_fedsgt(ds, plan, seqs, cfg)
        acc = evaluate(model, fresh_state(seqs), "allseq", ds.test_x, ds.test_y)
        assert acc > 0.9, acc


def oracle_prefix(ds, plan, perm, cfg, sid, upto, meter):
    """Per-round form of training one prefix: every phase gathers its
    cumulative data with ``client_data`` and runs its rounds one
    ``federated_round`` at a time. Returns (group, samples, weight bytes)
    per module."""
    frozen = np.zeros((ds.classes, ds.dim))
    modules = []
    for phase in range(upto):
        data = client_data(ds, (ref for g in perm[:phase + 1]
                                for ref in plan.groups[g]))
        active = np.zeros((ds.classes, ds.dim))
        for rnd in range(cfg.rounds_per_phase):
            active = federated_round(active, frozen, data, cfg,
                                     (sid, phase, rnd), meter)
        modules.append((perm[phase], sum(len(y) for _, y in data.values()),
                        active.tobytes()))
        frozen = frozen + active
    return modules


def upto_maps(budget, groups, seed):
    """Seeded ``{sid: upto}`` maps: a random subset with random lengths
    (zeros included), a lone sequence, and every sequence at full length."""
    rng = np.random.default_rng(seed)
    chosen = sorted(rng.choice(budget, size=max(2, budget // 2), replace=False))
    mixed = {int(sid): int(rng.integers(0, groups + 1)) for sid in chosen}
    mixed[int(chosen[0])] = 0
    lone = {int(rng.integers(budget)): int(rng.integers(1, groups + 1))}
    return [mixed, lone, {sid: groups for sid in range(budget)}]


@st.composite
def prefix_calls(draw):
    """``(clients, slices per client, samples per client, groups, budget,
    seed, [(sid, upto), ...])`` for one ``train_prefixes`` call: plans
    whose slices need not divide into the groups, budgets past the group
    count (up to twice it, where that many orders exist), and the jobs of
    a drawn subset of sequences in a drawn order, each with any upto."""
    clients = draw(st.integers(1, 4))
    slices = draw(st.integers(1, 3))
    samples = draw(st.integers(slices, 24))
    groups = draw(st.integers(1, min(5, clients * slices)))
    budget = draw(st.integers(1, min(2 * groups, math.factorial(groups))))
    sids = draw(st.lists(st.integers(0, budget - 1), min_size=1, unique=True))
    uptos = [(sid, draw(st.integers(0, groups))) for sid in sids]
    return clients, slices, samples, groups, budget, draw(st.integers(0, 3)), uptos


class TestTrainPrefixes:
    """Stacking the rounds of several prefixes gives each module, and the
    cost, of training every prefix alone round by round, while no kernel
    call stacks more rows than one full-length round."""

    @pytest.mark.parametrize("groups", [3, 5, 8])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_matches_per_round_oracle(self, groups, factor, monkeypatch):
        budget = groups * factor
        ds = data(seed=groups, clients=4, samples_per_client=40, dim=5,
                  slices_per_client=2)
        plan = build_grouping(ds.slice_catalog(), groups, groups)
        seqs = build_sequences(groups, budget, groups)
        cfg = TrainConfig(epochs=1, lr=0.2, batch_size=8, rounds_per_phase=2,
                          seed=factor)
        stacked_rows, widest = [], 0

        def recording(runs, *args):
            nonlocal widest
            widest = max(widest, len(runs))
            stacked_rows.append(sum(len(y) for _, d, _ in runs
                                    for _, y in d.values()))
            return _build_stack(runs, *args)

        monkeypatch.setattr(fedsgt.fltrain, "_build_stack", recording)
        for upto in upto_maps(budget, groups, seed=groups * factor):
            jobs = {sid: (seqs.perms[sid], n) for sid, n in upto.items()}
            stacked_rows.clear()
            meter = CostMeter()
            got = train_prefixes(ds, plan, jobs, cfg, meter)
            assert list(got) == list(jobs)
            want_updates = 0
            for sid, (perm, n) in jobs.items():
                alone = CostMeter()
                want = oracle_prefix(ds, plan, perm, cfg, sid, n, alone)
                assert [(m.group, m.samples, m.weights.tobytes())
                        for m in got[sid]] == want, (upto, sid)
                want_updates += alone.updates
            assert meter.updates == want_updates
            assert max(stacked_rows, default=0) <= plan.total_samples
        # Every sequence at full length needs more rows at the last phase
        # than one stack may hold, so the bound split its stacks. A stack of
        # several runs is built once per phase, a lone run once per round.
        assert len(stacked_rows) > groups * cfg.rounds_per_phase
        assert widest > 1

    @settings(max_examples=30, deadline=None)
    @given(call=prefix_calls())
    # Named shapes: an unbalanced plan (6 slices in 4 groups) whose groups
    # miss clients, B > L, a rotation window that wraps, partial and zero
    # prefixes, several jobs; then a lone full-length job.
    @example(call=(3, 2, 24, 4, 6, 1, [(5, 4), (3, 4), (1, 2), (0, 0), (4, 3)]))
    @example(call=(2, 3, 17, 5, 5, 2, [(2, 5)]))
    def test_drawn_calls_match_per_round_oracle(self, call):
        clients, slices, samples, groups, budget, seed, uptos = call
        ds = data(seed=seed, clients=clients, samples_per_client=samples,
                  dim=3, slices_per_client=slices)
        plan = build_grouping(ds.slice_catalog(), groups, seed)
        seqs = build_sequences(groups, budget, seed)
        cfg = TrainConfig(epochs=1, lr=0.2, batch_size=8, seed=seed)
        jobs = {sid: (seqs.perms[sid], upto) for sid, upto in uptos}
        meter = CostMeter()
        got = train_prefixes(ds, plan, jobs, cfg, meter)
        assert list(got) == list(jobs)
        want_updates = 0
        for sid, (perm, upto) in jobs.items():
            alone = CostMeter()
            want = oracle_prefix(ds, plan, perm, cfg, sid, upto, alone)
            assert [(m.group, m.samples, m.weights.tobytes())
                    for m in got[sid]] == want, sid
            want_updates += alone.updates
        assert meter.updates == want_updates

    @pytest.mark.parametrize("budget", [2, 4])
    def test_rotation_audit_trains_from_views_of_one_table(self, budget,
                                                           monkeypatch):
        ds, plan, seqs, cfg = system(seed=4)
        seqs = build_sequences(4, budget, 4)
        model = train_fedsgt(ds, plan, seqs, cfg)
        tables, members = [], []

        def counted(*args, **kwargs):
            tables.append(client_data(*args, **kwargs))
            return tables[-1]

        def recording(runs, *args):
            members.extend(d for _, data, _ in runs for d in data.items())
            return _build_stack(runs, *args)

        monkeypatch.setattr(fedsgt.fltrain, "client_data", counted)
        monkeypatch.setattr(fedsgt.fltrain, "_build_stack", recording)
        for deleted in [(), (1,), (0, 2)]:
            tables.clear()
            members.clear()
            assert exactness_audit(model, plan, cfg, ds, deleted).passed
            assert len(tables) == 1
            (table,) = tables
            assert members
            for client, (x, y) in members:
                assert np.shares_memory(x, table[client][0])
                assert np.shares_memory(y, table[client][1])

    def test_one_sequence_steps_through_federated_round(self, monkeypatch):
        ds, plan, seqs, cfg = system(seed=3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[4])
            return federated_round(*args, **kwargs)

        monkeypatch.setattr(fedsgt.fltrain, "federated_round", counted)
        train_sequence(ds, plan, seqs.perms[2], cfg, sequence_index=2)
        assert calls == [(2, phase, 0) for phase in range(4)]

    def test_group_without_data_is_a_training_error(self):
        ds, plan, _, cfg = system()
        empty_head = GroupingPlan(seed=0, groups=((), tuple(plan.sizes)),
                                  sizes=plan.sizes)
        with pytest.raises(TrainingError,
                           match="^phase 0: cumulative groups hold no data$"):
            train_prefixes(ds, empty_head, {0: ((0, 1), 2)}, cfg)

    def test_upto_out_of_range_rejected(self):
        ds, plan, seqs, cfg = system()
        with pytest.raises(ValueError, match=r"upto_phase must be in \[0, 4\]"):
            train_prefixes(ds, plan, {0: (seqs.perms[0], 2),
                                      1: (seqs.perms[1], 5)}, cfg)
        assert train_prefixes(ds, plan, {}, cfg) == {}


class TestServing:
    def setup_method(self):
        self.ds, self.plan, self.seqs, cfg = system(seed=2, epochs=3)
        self.model = train_fedsgt(self.ds, self.plan, self.seqs, cfg)

    def test_zero_model_predicts_first_class(self):
        # untouched zero weights: uniform probabilities, argmax resolves to
        # class 0, accuracy equals the class-0 share of the balanced split
        ds, plan, seqs, _ = system(epochs=0)
        cfg = TrainConfig(epochs=0, lr=0.1, batch_size=16, seed=0)
        model = train_fedsgt(ds, plan, seqs, cfg)
        acc = evaluate(model, fresh_state(seqs), "longseq", ds.test_x, ds.test_y)
        assert acc == pytest.approx(1 / 3)

    def test_probabilities_normalized(self):
        state = fresh_state(self.seqs)
        for strategy in ("allseq", "minseq", "longseq"):
            probs = predict_proba(self.model, state, strategy,
                                  self.ds.test_x[:7])
            assert probs.shape == (7, 3)
            assert np.allclose(probs.sum(axis=1), 1.0)
            assert (probs >= 0).all()

    def test_strategies_agree_when_nothing_deleted(self):
        # with the full set alive longseq uses the longest sequence; all
        # three should classify separable test data almost identically
        state = fresh_state(self.seqs)
        accs = {s: evaluate(self.model, state, s, self.ds.test_x,
                            self.ds.test_y) for s in ("allseq", "minseq",
                                                      "longseq")}
        assert max(accs.values()) - min(accs.values()) < 0.1

    def test_deletion_degrades_gracefully(self):
        state = fresh_state(self.seqs)
        for g in (0, 2):
            state = apply_deletion(state, self.seqs, g)
        acc = evaluate(self.model, state, "allseq", self.ds.test_x,
                       self.ds.test_y)
        assert acc > 0.5

    def test_all_dead_raises(self):
        state = state_from_deleted(self.seqs, frozenset(range(4)))
        with pytest.raises(ServiceUnavailable):
            predict_proba(self.model, state, "allseq", self.ds.test_x[:1])

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            predict_proba(self.model, fresh_state(self.seqs), "best",
                          self.ds.test_x[:1])


def reference_proba(model, state, strategy, x):
    """Serving written out: each chosen sequence's backbone-plus-prefix
    logits through the textbook softmax, then the prefix-weighted (allseq)
    or uniform (minseq) sum in ascending sequence id."""
    def probs(sid):
        w = model.backbone.copy()
        for module in model.modules[sid][:state.active_len[sid]]:
            w = w + module.weights
        return textbook_softmax(x @ w.T)

    seqs = model.sequences
    if strategy == "longseq":
        return probs(select_longseq(state, seqs))
    if strategy == "minseq":
        chosen = sorted(select_minseq(state, seqs))
        acc = probs(chosen[0])
        for sid in chosen[1:]:
            acc = acc + probs(sid)
        return acc / len(chosen)
    acc = None
    for sid, weight in select_allseq(state, seqs):
        p = weight * probs(sid)
        acc = p if acc is None else acc + p
    return acc


class TestServingBytes:
    """predict_proba and matrix_accuracy give the bytes of serving written
    out by hand, at several deletion states. The subclasses below rerun every
    case at other class counts."""

    CLASSES = 5

    @pytest.fixture(scope="class")
    def trained(self):
        ds = data(seed=4, clients=6, classes=self.CLASSES, dim=11)
        plan = build_grouping(ds.slice_catalog(), 6, 4)
        seqs = build_sequences(6, 8, 4)
        cfg = TrainConfig(epochs=2, lr=0.1, batch_size=16, seed=4)
        return ds, train_fedsgt(ds, plan, seqs, cfg)

    @pytest.mark.parametrize("deleted", [(), (2,), (0, 3), (1, 4, 5)])
    @pytest.mark.parametrize("strategy", ["allseq", "minseq", "longseq"])
    def test_predict_proba(self, trained, strategy, deleted):
        ds, model = trained
        state = state_from_deleted(model.sequences, deleted)
        assert not state.all_dead
        got = predict_proba(model, state, strategy, ds.test_x)
        want = reference_proba(model, state, strategy, ds.test_x)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_matrix_accuracy(self, count):
        rng = np.random.default_rng(count)
        x = rng.normal(size=(400, 11))
        y = rng.integers(0, self.CLASSES, 400)
        weights = [rng.normal(size=(self.CLASSES, 11)) for _ in range(count)]
        acc = textbook_softmax(x @ weights[0].T)
        for w in weights[1:]:
            acc = acc + textbook_softmax(x @ w.T)
        want = float(np.mean(np.argmax(acc / count, axis=1) == y))
        assert matrix_accuracy(weights, x, y) == want


class TestServingBytesTwoClasses(TestServingBytes):
    CLASSES = 2


class TestServingBytesTenClasses(TestServingBytes):
    CLASSES = 10  # the class sum's branch from 8 classes


STRATEGY_NAMES = ("allseq", "minseq", "longseq")


def served_ids(state, strategy, seqs):
    if strategy == "longseq":
        return {select_longseq(state, seqs)}
    if strategy == "minseq":
        return select_minseq(state, seqs)
    return {sid for sid, _ in select_allseq(state, seqs)}


def deletion_states(seqs, seed):
    """Every live state of a seeded stream of group deletions, repeats
    included, until nothing survives."""
    rng = np.random.default_rng(seed)
    state = fresh_state(seqs)
    states = [state]
    while True:
        state = apply_deletion(state, seqs, int(rng.integers(seqs.group_count)))
        if state.all_dead:
            return states
        states.append(state)


class TestReuse:
    """predict_proba with a ``reuse`` dict carried along a deletion stream
    gives the bytes of scoring afresh, at B < L, B = L and B > L."""

    @pytest.fixture(scope="class", params=[3, 5, 9])
    def trained(self, request):
        ds = data(seed=6, clients=5, classes=4, dim=7)
        plan = build_grouping(ds.slice_catalog(), 5, 6)
        seqs = build_sequences(5, request.param, 6)
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=16, seed=6)
        return ds, train_fedsgt(ds, plan, seqs, cfg)

    @pytest.mark.parametrize("strategy", [*STRATEGY_NAMES, "mixed"])
    def test_bytes_and_served_ids(self, trained, strategy):
        ds, model = trained
        for seed in range(3):
            reuse = {}
            for step, state in enumerate(deletion_states(model.sequences, seed)):
                name = (STRATEGY_NAMES[step % 3] if strategy == "mixed"
                        else strategy)
                got = predict_proba(model, state, name, ds.test_x, reuse)
                want = predict_proba(model, state, name, ds.test_x)
                assert got.tobytes() == want.tobytes(), (seed, step)
                assert set(reuse) == served_ids(state, name, model.sequences)
                for sid, (n, probs) in reuse.items():
                    assert n == state.active_len[sid]
                    assert not np.shares_memory(probs, got)
                    fresh = _softmax(sequence_logits(model, sid, n, ds.test_x))
                    assert probs.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("strategy", [*STRATEGY_NAMES, "mixed"])
    def test_logits_once_per_newly_served_prefix(self, trained, strategy,
                                                 monkeypatch):
        ds, model = trained
        calls = []

        def counted(model, seq_id, active_len, x):
            calls.append((seq_id, active_len))
            return sequence_logits(model, seq_id, active_len, x)

        monkeypatch.setattr(fedsgt.fltrain, "sequence_logits", counted)
        reuse = {}
        for step, state in enumerate(deletion_states(model.sequences, 1)):
            name = STRATEGY_NAMES[step % 3] if strategy == "mixed" else strategy
            before = {sid: n for sid, (n, _) in reuse.items()}
            calls.clear()
            predict_proba(model, state, name, ds.test_x, reuse)
            new = {(sid, n) for sid, (n, _) in reuse.items()
                   if before.get(sid) != n}
            assert sorted(calls) == sorted(new), step

    def test_rejected_call_leaves_the_dict_as_it_was(self, trained):
        ds, model = trained
        seqs = model.sequences
        reuse = {}
        predict_proba(model, fresh_state(seqs), "allseq", ds.test_x, reuse)
        kept = dict(reuse)
        with pytest.raises(ValueError, match="unknown strategy"):
            predict_proba(model, fresh_state(seqs), "best", ds.test_x, reuse)
        with pytest.raises(ServiceUnavailable):
            predict_proba(model, state_from_deleted(seqs, range(5)), "allseq",
                          ds.test_x, reuse)
        assert reuse.keys() == kept.keys()
        assert all(reuse[sid] is kept[sid] for sid in kept)


class TestCostAccounting:
    def test_fedsgt_meter_exact(self):
        # 4 groups x 60 samples, d*k = 24 params, E=2, one round per phase:
        # per sequence sum of cumulative prefixes = 60+120+180+240 = 600
        ds, plan, seqs, cfg = system(epochs=2)
        meter = CostMeter()
        train_fedsgt(ds, plan, seqs, cfg, meter=meter)
        assert meter.updates == 4 * 2 * 24 * 600

    def test_fedavg_meter_exact(self):
        ds, *_ = (data(),)
        flat = {c: (np.concatenate([x for x in ds.train_x[c]]),
                    np.concatenate([y for y in ds.train_y[c]]))
                for c in range(4)}
        cfg = TrainConfig(epochs=2, lr=0.1, batch_size=16, seed=0)
        meter = CostMeter()
        fedavg_train(flat, classes=3, dim=8, rounds=5, cfg=cfg, meter=meter,
                     cost_modules=4)
        # T*E*D*P*L with D=240, P=24, L=4 booked as the adapter stack
        assert meter.updates == 5 * 2 * 240 * 24 * 4

    def test_meter_validates(self):
        meter = CostMeter()
        with pytest.raises(ValueError):
            meter.charge(-1, 2)


class TestFedAvgBaseline:
    def test_learns_separable_data(self):
        ds = data(seed=9)
        flat = {c: (np.concatenate(list(ds.train_x[c])),
                    np.concatenate(list(ds.train_y[c])))
                for c in range(4)}
        cfg = TrainConfig(epochs=2, lr=0.1, batch_size=16, seed=9)
        w = fedavg_train(flat, classes=3, dim=8, rounds=8, cfg=cfg)
        acc = matrix_accuracy([w], ds.test_x, ds.test_y)
        assert acc > 0.9

    def test_matrix_accuracy_requires_models(self):
        ds = data()
        with pytest.raises(ServiceUnavailable):
            matrix_accuracy([], ds.test_x, ds.test_y)


class TestFedAvgRuns:
    """The FedAvg baselines against an oracle of their own: T rounds of
    ``federated_round`` from a zero module, round t keyed (*namespace, t)."""

    K, D = TestLockstepRounds.K, TestLockstepRounds.D
    clients = TestLockstepRounds.clients

    def oracle(self, data, rounds, cfg, namespace, meter, cost_modules=1):
        frozen = np.zeros((self.K, self.D))
        w = np.zeros((self.K, self.D))
        for t in range(rounds):
            w = federated_round(w, frozen, data, cfg, (*namespace, t), meter,
                                cost_modules)
        return w

    def test_fedavg_train_matches_per_round_oracle(self):
        cfg = TrainConfig(epochs=2, lr=0.2, batch_size=8, seed=3)
        data = self.clients((37, 20, 8), seed=1)
        got_meter, want_meter = CostMeter(), CostMeter()
        got = fedavg_train(data, self.K, self.D, 4, cfg, (9, 2), got_meter,
                           cost_modules=5)
        want = self.oracle(data, 4, cfg, (9, 2), want_meter, cost_modules=5)
        assert got.tobytes() == want.tobytes()
        assert got_meter.updates == want_meter.updates > 0

    def test_lockstep_runs_match_each_run_alone(self):
        cfg = TrainConfig(epochs=2, lr=0.2, batch_size=7, seed=5)
        runs = [(self.clients(sizes, seed=r), (4, r))
                for r, sizes in enumerate([(30, 9, 1), (16,), (23, 23, 40, 5)])]
        got_meter = CostMeter()
        got = fedavg_lockstep(runs, self.K, self.D, 3, cfg, got_meter, 2)
        assert len(got) == len(runs)
        total = 0
        for w, (data, namespace) in zip(got, runs):
            alone = CostMeter()
            want = fedavg_train(data, self.K, self.D, 3, cfg, namespace, alone, 2)
            assert w.tobytes() == want.tobytes()
            assert w.tobytes() == self.oracle(data, 3, cfg, namespace,
                                              CostMeter(), 2).tobytes()
            total += alone.updates
        assert got_meter.updates == total

    def test_no_runs_train_nothing(self):
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8, seed=0)
        meter = CostMeter()
        assert fedavg_lockstep([], self.K, self.D, 3, cfg, meter) == []
        assert meter.updates == 0

    def test_lone_run_steps_through_federated_round(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[4])
            return federated_round(*args, **kwargs)

        monkeypatch.setattr(fedsgt.fltrain, "federated_round", counted)
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8, seed=0)
        fedavg_train(self.clients((12, 5), seed=0), self.K, self.D, 3, cfg, (7,))
        assert calls == [(7, t) for t in range(3)]
        calls.clear()
        fedavg_lockstep([(self.clients((12,), seed=r), (r,)) for r in range(2)],
                        self.K, self.D, 3, cfg)
        assert calls == []


class TestTrainConfig:
    def test_defaults_and_minimums_are_the_trainer_specs(self):
        spec = TrainerSpec()
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.lr, cfg.batch_size, cfg.rounds_per_phase, cfg.seed) \
            == (spec.epochs, spec.lr, spec.batch_size, spec.rounds_per_phase, 0)
        assert TrainConfig(epochs=0, batch_size=1, rounds_per_phase=1).epochs == 0
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            TrainConfig(batch_size=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(rounds_per_phase=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(batch_size=2.5), "batch_size: expected an integer, got 2.5"),
        (dict(epochs=1.5), "epochs: expected an integer, got 1.5"),
        (dict(rounds_per_phase=True), "rounds_per_phase: expected an integer"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(lr=float("nan")), "lr must be a finite positive number, got nan"),
        (dict(lr=float("inf")), "lr must be a finite positive number, got inf"),
    ], ids=["batch_float", "epochs_float", "rounds_bool", "seed_negative",
            "lr_nan", "lr_inf"])
    def test_rejects_what_the_config_reader_rejects(self, kwargs, message):
        # Each of these used to be accepted and fail later, inside the
        # kernel or at the first stream.
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)
