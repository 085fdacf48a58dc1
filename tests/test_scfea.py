"""scfea-lite: the stoichiometric matrix, hop-2 weights, stacked module nets
and the fused balance loss against a composed per-module reference."""

import numpy as np
import pytest

from snodep import nn
from snodep import tensor as T
from snodep.data import TimeSeriesDataset, ValidationError, pathway_from_dict
from snodep.scfea import (
    ScfeaConfig,
    balance_loss,
    balance_problem,
    compute_balance,
    estimate_flux_balance,
    flux_matrix,
    hop2_share,
    hop2_weights,
    init_module_nets,
    pathway_matrices,
)
from snodep.tensor import Adam, GradientTape, Tensor, backward
from tests.conftest import finite_diff


def chain_pathway():
    """Three modules in a line: M1 -> A -> M2 -> B -> M3."""
    return pathway_from_dict({
        "genes": ["g0", "g1", "g2", "g3", "g4", "g5"],
        "modules": [{"name": "M1", "genes": ["g0", "g1"]},
                    {"name": "M2", "genes": ["g2", "g3"]},
                    {"name": "M3", "genes": ["g4", "g5"]}],
        "metabolites": [{"name": "A", "in_modules": ["M1"], "out_modules": ["M2"]},
                        {"name": "B", "in_modules": ["M2"], "out_modules": ["M3"]}],
    })


def random_pathway(rng, n_mod, n_met):
    modules = [{"name": f"M{i}", "genes": [f"g{i}"]} for i in range(n_mod)]
    metabolites = []
    for k in range(n_met):
        ins = sorted(rng.choice(n_mod, size=rng.integers(0, 3), replace=False).tolist())
        outs = sorted(set(rng.choice(n_mod, size=rng.integers(0, 3),
                                     replace=False).tolist()) - set(ins))
        if not ins and not outs:
            ins = [int(rng.integers(0, n_mod))]
        metabolites.append({"name": f"X{k}", "in_modules": [f"M{i}" for i in ins],
                            "out_modules": [f"M{i}" for i in outs]})
    return pathway_from_dict({"genes": [f"g{i}" for i in range(n_mod)],
                              "modules": modules, "metabolites": metabolites})


def neighbours(pathway):
    """Brute-force hop-2 neighbourhoods: metabolite name -> the names of the
    other metabolites that share a producer or consumer with it."""
    adj = {m.name: set(m.in_modules) | set(m.out_modules) for m in pathway.metabolites}
    return {a: [b for b in adj if b != a and adj[a] & adj[b]] for a in adj}


def named_share(pathway):
    """:func:`hop2_share` of the pathway as metabolite name -> neighbour names."""
    names = [m.name for m in pathway.metabolites]
    share = hop2_share(pathway_matrices(pathway)[1])
    return {a: [b for b, s in zip(names, row) if s] for a, row in zip(names, share)}


class TestHop2:
    def test_chain_neighbors(self):
        assert named_share(chain_pathway()) == {"A": ["B"], "B": ["A"]}

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pathway = random_pathway(rng, int(rng.integers(2, 7)),
                                     int(rng.integers(2, 6)))
            assert named_share(pathway) == neighbours(pathway)


def mixed_pathway():
    """Modules of 1, 2 and 3 genes (so two are padded); M3 both feeds and
    drains B; D is drained by two modules."""
    return pathway_from_dict({
        "genes": [f"g{i}" for i in range(6)],
        "modules": [{"name": "M1", "genes": ["g0"]},
                    {"name": "M2", "genes": ["g1", "g2"]},
                    {"name": "M3", "genes": ["g3", "g4", "g5"]},
                    {"name": "M4", "genes": ["g5", "g2"]}],
        "metabolites": [{"name": "A", "in_modules": ["M1"], "out_modules": ["M2"]},
                        {"name": "B", "in_modules": ["M2", "M3"],
                         "out_modules": ["M3"]},
                        {"name": "C", "in_modules": ["M3"], "out_modules": ["M4"]},
                        {"name": "D", "in_modules": ["M4"],
                         "out_modules": ["M1", "M2"]}],
    })


def gene_index(pathway):
    return {g: i for i, g in enumerate(pathway.genes)}


def problem_for(nets, expression, pathway, lambda_nt=0.1, c=None):
    s, touch = pathway_matrices(pathway)
    return balance_problem(nets, expression, s, hop2_weights(touch) if c is None else c,
                           lambda_nt)


def weighted_c(pathway, weights):
    """Hop-2 weights ``c`` when metabolite n counts ``weights[n]`` (default 1)
    in every neighbourhood that lists it."""
    hood = neighbours(pathway)
    c = {name: 1.0 for name in hood}
    for names in hood.values():
        for name in names:
            c[name] += weights.get(name, 1.0)
    return np.array(list(c.values()))


def composed_loss(nets, expression, pathway, lambda_nt, weights):
    """The loss built the per-module way from tensor primitives: one MLP per
    module on its own genes, imbalances summed over each metabolite's
    producers and consumers, every neighbour's squared imbalance, times its
    weight in ``weights`` (default 1), added to each metabolite's term, and
    the anchor per module. Returns the loss and the per-module parameter
    tensors [(w0, b0, w1, b1), ...]."""
    expr_t = Tensor(expression.T)
    fluxes, params = {}, []
    for i, mod in enumerate(pathway.modules):
        k = len(mod.genes)
        ps = [Tensor(nets.w0.values[i, :k].copy(), True),
              Tensor(nets.b0.values[i, 0].copy(), True),
              Tensor(nets.w1.values[i].copy(), True),
              Tensor(nets.b1.values[i, 0].copy(), True)]
        params.append(ps)
        x = expr_t[:, [pathway.genes.index(g) for g in mod.genes]]
        fluxes[mod.name] = T.softplus(T.tanh(x @ ps[0] + ps[1]) @ ps[2] + ps[3])
    sq = {}
    for met in pathway.metabolites:
        total = None
        for name, sign in ([(m, 1.0) for m in met.in_modules]
                           + [(m, -1.0) for m in met.out_modules]):
            term = sign * fluxes[name]
            total = term if total is None else total + term
        sq[met.name] = T.tsum(T.square(total))
    loss = None
    hood = neighbours(pathway)
    for met in pathway.metabolites:
        term = sq[met.name]
        for other in hood[met.name]:
            term = term + weights.get(other, 1.0) * sq[other]
        loss = term if loss is None else loss + term
    for mod in pathway.modules:
        rows = [pathway.genes.index(g) for g in mod.genes]
        activity = expression[rows].mean(axis=0)[:, None]
        loss = loss + lambda_nt * T.tsum(T.square(fluxes[mod.name] - Tensor(activity)))
    return loss, params


def constant_nets(pathway, raw_outputs):
    """Stacked nets with zero weights, so module i's flux is softplus(raw_i)."""
    nets = init_module_nets(pathway, gene_index(pathway), 3, np.random.default_rng(0))
    for t in (nets.w0, nets.b0, nets.w1):
        t.values[...] = 0.0
    nets.b1.values[:, 0, 0] = raw_outputs
    return nets


class TestBalance:
    def test_matches_stoichiometric_matrix(self):
        pathway = chain_pathway()
        rng = np.random.default_rng(1)
        flux = rng.random((3, 7))
        # stoichiometry S: +1 producer, -1 consumer
        s = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
        np.testing.assert_array_equal(pathway_matrices(pathway)[0], s)
        np.testing.assert_allclose(compute_balance(flux, pathway), s @ flux,
                                   atol=1e-12)

    def test_zero_for_consistent_flux(self):
        pathway = chain_pathway()
        flux = np.ones((3, 4)) * 2.5
        np.testing.assert_array_equal(compute_balance(flux, pathway),
                                      np.zeros((2, 4)))

    def test_producer_and_consumer_cancel(self):
        s, touch = pathway_matrices(mixed_pathway())
        np.testing.assert_array_equal(s, [[1, -1, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 1, -1], [-1, -1, 0, 1]])
        # M3 feeds and drains B: it cancels in S but still touches B
        np.testing.assert_array_equal(touch, [[1, 1, 0, 0], [0, 1, 1, 0],
                                              [0, 0, 1, 1], [1, 1, 0, 1]])


class TestHop2Weights:
    def test_chain(self):
        touch = pathway_matrices(chain_pathway())[1]
        np.testing.assert_array_equal(hop2_weights(touch), [2.0, 2.0])

    def test_counts_every_neighbourhood_with_its_weight(self):
        pathway = mixed_pathway()
        listed = {m.name: 0 for m in pathway.metabolites}
        for names in neighbours(pathway).values():
            for name in names:
                listed[name] += 1
        want = [1.0 + listed[n] for n in listed]
        np.testing.assert_array_equal(hop2_weights(pathway_matrices(pathway)[1]), want)


class TestBalanceLoss:
    def test_matches_hand_computed_value(self):
        pathway = chain_pathway()
        rng = np.random.default_rng(2)
        expression = rng.random((6, 5))
        raw = [0.3, -0.5, 1.1]
        nets = constant_nets(pathway, raw)
        loss = balance_loss(nets, problem_for(nets, expression, pathway, 0.1))

        flux = np.logaddexp(0.0, raw)  # softplus
        sq_a = 5 * (flux[0] - flux[1]) ** 2
        sq_b = 5 * (flux[1] - flux[2]) ** 2
        # each metabolite adds its own imbalance plus its hop-2 neighbor's
        expected = (sq_a + sq_b) + (sq_b + sq_a)
        for i, mod in enumerate(pathway.modules):
            rows = [pathway.genes.index(g) for g in mod.genes]
            activity = expression[rows].mean(axis=0)
            expected += 0.1 * np.sum((flux[i] - activity) ** 2)
        assert loss.values.item() == pytest.approx(expected, rel=1e-12)

    def test_neighbor_weighting(self):
        # A's imbalance counted in B's neighbourhood (c_A = 2) or not (c_A = 1)
        pathway = chain_pathway()
        nets = constant_nets(pathway, [1.0, 0.0, 0.0])
        expression = np.ones((6, 2))
        with_weight = balance_loss(nets, problem_for(nets, expression, pathway, 0.0,
                                                     c=np.array([1.0, 2.0])))
        full = balance_loss(nets, problem_for(nets, expression, pathway, 0.0,
                                              c=np.array([2.0, 2.0])))
        assert with_weight.values.item() < full.values.item()

    def test_negative_anchor_weight_rejected(self):
        pathway = chain_pathway()
        nets = constant_nets(pathway, [0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="lambda_nt must be >= 0"):
            problem_for(nets, np.ones((6, 2)), pathway, lambda_nt=-1.0)

    def test_expression_row_check(self):
        pathway = chain_pathway()
        nets = constant_nets(pathway, [0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            problem_for(nets, np.ones((4, 2)), pathway)
        with pytest.raises(ValidationError):
            flux_matrix(nets, np.ones((4, 2)))


class TestFusedBalanceLoss:
    """The fused node against the composed per-module loss and against
    central differences, on a pathway that needs padding."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.pathway = mixed_pathway()
        self.weights = {"A": 0.5, "C": 2.0}
        self.nets = init_module_nets(self.pathway, gene_index(self.pathway), 5, rng)
        self.expression = rng.poisson(2.0, size=(6, 9)).astype(float)
        self.problem = problem_for(self.nets, self.expression, self.pathway, 0.3,
                                   c=weighted_c(self.pathway, self.weights))

    def params(self):
        return [self.nets.w0, self.nets.b0, self.nets.w1, self.nets.b1]

    def fused_grads(self):
        for p in self.params():
            p.grad = None
        backward(balance_loss(self.nets, self.problem))
        return [p.grad.copy() for p in self.params()]

    def test_one_tape_node(self):
        loss = balance_loss(self.nets, self.problem)
        ops = [n.op for n in GradientTape.from_output(loss).operations if n.op != "leaf"]
        assert ops == ["scfea_balance_loss"]

    def test_forward_matches_composed(self):
        fused = balance_loss(self.nets, self.problem).values.item()
        composed, _ = composed_loss(self.nets, self.expression, self.pathway, 0.3,
                                    self.weights)
        assert fused == pytest.approx(composed.values.item(), rel=1e-12)

    def test_gradients_match_composed(self):
        got = self.fused_grads()
        loss, per_module = composed_loss(self.nets, self.expression, self.pathway, 0.3,
                                         self.weights)
        backward(loss)
        for i, (mod, ps) in enumerate(zip(self.pathway.modules, per_module)):
            k = len(mod.genes)
            for g, p, sl in zip(got, ps, [(i, slice(0, k)), (i, 0), (i,), (i, 0)]):
                np.testing.assert_allclose(g[sl], p.grad, rtol=1e-12, atol=1e-12)

    def test_gradients_match_central_differences(self):
        for p, g in zip(self.params(), self.fused_grads()):
            def value(v, p=p):
                saved = p.values.copy()
                p.values[...] = v
                try:
                    return balance_loss(self.nets, self.problem).values.item()
                finally:
                    p.values[...] = saved
            fd = finite_diff(value, p.values.copy())
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_padding_is_zero_and_stays_zero(self):
        pad = ~self.nets.mask
        assert pad.sum() == 4      # M1 pads two rows, M2 and M4 one each
        w0 = self.nets.w0
        assert np.all(w0.values[pad] == 0.0)
        opt = Adam(self.nets.tensors(), lr=0.05)
        for _ in range(25):
            opt.zero_grad()
            backward(balance_loss(self.nets, self.problem))
            assert np.all(w0.grad[pad] == 0.0)
            opt.step()
        assert np.all(w0.values[pad] == 0.0)
        assert np.all(w0.values[~pad] != 0.0)

    def test_untracked_weights_give_untracked_loss(self):
        for p in self.params():
            p.requires_grad = False
        assert not balance_loss(self.nets, self.problem).requires_grad


class TestModuleNets:
    def test_flux_strictly_positive(self):
        pathway = chain_pathway()
        rng = np.random.default_rng(3)
        nets = init_module_nets(pathway, gene_index(pathway), 4, rng)
        flux = flux_matrix(nets, rng.normal(size=(6, 10)))
        assert flux.shape == (3, 10)
        assert np.all(flux > 0)

    def test_draws_match_per_module_mlps(self):
        pathway = mixed_pathway()
        nets = init_module_nets(pathway, gene_index(pathway), 5,
                                np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for i, mod in enumerate(pathway.modules):
            (w0, b0), (w1, b1) = nn.init_mlp(rng, [len(mod.genes), 5, 1]).layers
            np.testing.assert_array_equal(nets.w0.values[i, :len(mod.genes)], w0.values)
            np.testing.assert_array_equal(nets.b0.values[i, 0], b0.values)
            np.testing.assert_array_equal(nets.w1.values[i], w1.values)
            np.testing.assert_array_equal(nets.b1.values[i, 0], b1.values)

    def test_empty_module_rejected(self):
        pathway = chain_pathway()
        pathway.modules[0].genes = []
        with pytest.raises(ValidationError):
            init_module_nets(pathway, gene_index(pathway), 4, np.random.default_rng(0))


class TestEstimateFluxBalance:
    def consistent_dataset(self, n=30, v=2):
        # equal activity in every module admits a zero-imbalance solution
        rng = np.random.default_rng(4)
        samples = []
        for _ in range(v):
            base = rng.poisson(6.0, size=(1, n)).astype(float)
            samples.append(np.repeat(base, 6, axis=0))
        return TimeSeriesDataset("expression", np.arange(float(v)), samples,
                                 ["g0", "g1", "g2", "g3", "g4", "g5"])

    def test_output_structure_and_consistency(self):
        pathway = chain_pathway()
        ds = self.consistent_dataset()
        flux, bal = estimate_flux_balance(ds, pathway, ScfeaConfig(steps=60))
        assert flux.kind == "flux" and bal.kind == "balance"
        assert flux.feature_names == ["M1", "M2", "M3"]
        assert bal.feature_names == ["A", "B"]
        for f, b in zip(flux.samples, bal.samples):
            assert np.all(f > 0)
            np.testing.assert_allclose(b, compute_balance(f, pathway), atol=1e-12)

    def test_training_drives_loss_down(self):
        pathway = chain_pathway()
        ds = self.consistent_dataset(v=1)
        cfg = ScfeaConfig(steps=400, seed=0)
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        nets0 = init_module_nets(pathway, gene_index(pathway), cfg.hidden, rng)
        initial = balance_loss(nets0, problem_for(nets0, ds.samples[0], pathway,
                                                  cfg.lambda_nt)).values.item()
        flux, bal = estimate_flux_balance(ds, pathway, cfg)
        # imbalance after training is a loose but telling proxy for the loss
        final_imbalance = np.abs(bal.samples[0]).max()
        assert final_imbalance ** 2 < 0.05 * initial

    def test_deterministic_given_seed(self):
        pathway = chain_pathway()
        ds = self.consistent_dataset(v=2)
        f1, _ = estimate_flux_balance(ds, pathway, ScfeaConfig(steps=20, seed=5))
        f2, _ = estimate_flux_balance(ds, pathway, ScfeaConfig(steps=20, seed=5))
        for a, b in zip(f1.samples, f2.samples):
            np.testing.assert_array_equal(a, b)

    def test_missing_genes_rejected(self):
        pathway = chain_pathway()
        ds = TimeSeriesDataset("expression", [0.0],
                               [np.ones((2, 3))], ["g0", "g1"])
        with pytest.raises(ValidationError):
            estimate_flux_balance(ds, pathway, ScfeaConfig(steps=1))
