import numpy as np
import pytest

import omlattice as om

WC = 7.12e9
PAPER = om.Couplings(j=470e6, j_prime=700e6, j2=100e6, j3=27e6, j3_prime=37e6)
IDEAL = om.Couplings(j=470e6, j_prime=700e6)


def paper_chain_oracle(n_cells=5, couplings=PAPER, wc=WC):
    """Independent explicit-loop construction of the chain matrix."""
    n = 2 * n_cells
    h = np.zeros((n, n))
    np.fill_diagonal(h, wc)
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = couplings.j if i % 2 == 0 else couplings.j_prime
    for i in range(n - 2):
        h[i, i + 2] = h[i + 2, i] = couplings.j2
    for i in range(n - 3):
        h[i, i + 3] = h[i + 3, i] = couplings.j3 if i % 2 == 0 else couplings.j3_prime
    return h


def flake_bonds_reference():
    """The flake's bond table by a pair-by-pair loop over the canonical
    positions, with the distance tolerances of :func:`omlattice.flake_bonds`
    and a bond-direction test for pairs at distance 2, which that function
    leaves out because every such pair lies across a hexagon."""
    pos, _ = om.flake_site_positions()
    directions = np.array([(0.0, 1.0), (np.sqrt(3) / 2, -0.5), (-np.sqrt(3) / 2, -0.5)])
    bonds = {"strained": [], "unstrained": [], "second": []}
    for i in range(24):
        for j in range(i + 1, 24):
            d = pos[j] - pos[i]
            r = float(np.hypot(*d))
            if abs(r - 1.0) < 1e-9:
                kind = "strained" if abs(d[0]) < 1e-9 else "unstrained"
                bonds[kind].append((i + 1, j + 1))
            elif abs(r - np.sqrt(3)) < 1e-9:
                bonds["second"].append((i + 1, j + 1))
            elif abs(r - 2.0) < 1e-9:
                if np.any(np.abs(np.abs(directions @ (d / r)) - 1.0) < 1e-9):
                    bonds["second"].append((i + 1, j + 1))
    return bonds


class TestBuildSshChain:
    def test_paper_couplings_alternate(self):
        h = om.build_ssh_chain(5, IDEAL, [WC] * 10).matrix
        off = np.diag(h, 1)
        assert np.allclose(off, [470e6, 700e6] * 4 + [470e6])
        assert np.allclose(np.diag(h), WC)
        # nothing beyond nearest neighbors
        assert np.abs(np.triu(h, 2)).max() == 0.0

    def test_decoupled_single_cell_is_diagonal(self):
        h = om.build_ssh_chain(1, om.Couplings(j=0.0, j_prime=0.0), [7e9, 7.1e9]).matrix
        assert np.allclose(h, np.diag([7e9, 7.1e9]))

    def test_parasitic_patterns(self):
        h = om.build_ssh_chain(5, PAPER, [WC] * 10).matrix
        assert np.allclose(h, paper_chain_oracle())
        # second neighbors uniform, third neighbors bipartite-alternating
        assert np.allclose(np.diag(h, 2), 100e6)
        assert np.allclose(np.diag(h, 3), [27e6, 37e6] * 3 + [27e6])

    def test_second_neighbor_skews_band_widths(self):
        # j2 > 0 widens the upper passband and narrows the lower one
        freqs = np.linalg.eigvalsh(
            om.build_ssh_chain(5, om.Couplings(j=470e6, j_prime=700e6, j2=100e6), [WC] * 10).matrix
        )
        lpb, upb = freqs[:4], freqs[6:]
        assert upb.max() - upb.min() > lpb.max() - lpb.min()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            om.Couplings(j=-1.0, j_prime=1.0)
        with pytest.raises(ValueError):
            om.build_ssh_chain(5, IDEAL, [WC] * 9)
        with pytest.raises(ValueError):
            om.build_ssh_chain(0, IDEAL, [])


class TestHoneycombFlake:
    def test_geometry_canonical_map(self):
        pos, sub = om.flake_site_positions()
        assert pos.shape == (24, 2)
        assert "".join(sub) == "AABBBAAABBBBAAAABBBAAABB"
        # numbering is top-to-bottom, left-to-right
        order = sorted(range(24), key=lambda i: (-pos[i, 1], pos[i, 0]))
        assert order == list(range(24))
        bonds = om.flake_bonds()
        assert len(bonds["strained"]) == 10
        assert len(bonds["unstrained"]) == 20
        assert len(bonds["second"]) == 69
        # the designated edge sites attach through unstrained bonds only
        strained_sites = {s for bond in bonds["strained"] for s in bond}
        assert set(om.FLAKE_EDGE_SITES).isdisjoint(strained_sites)

    def test_bonds_match_the_pairwise_reference(self):
        assert om.flake_bonds() == flake_bonds_reference()

    @pytest.mark.parametrize("couplings, freqs", [
        (om.Couplings(j=400e6, j_prime=204e6, j2=40e6), [7.3e9] * 24),  # paper_2d.cfg
        (om.Couplings(j=1e8, j_prime=1e8), 7.3e9 + np.arange(24) * 1e6),  # isotropic
    ], ids=["paper_2d", "isotropic"])
    def test_matrix_matches_the_pairwise_reference_bytes(self, couplings, freqs):
        rates = {"strained": couplings.j, "unstrained": couplings.j_prime, "second": couplings.j2}
        h = np.diag(np.asarray(freqs, dtype=complex))
        for kind, bonds in flake_bonds_reference().items():
            for a, b in bonds:
                h[a - 1, b - 1] += rates[kind]
                h[b - 1, a - 1] += rates[kind]
        built = om.build_honeycomb_flake(couplings, freqs).matrix
        assert built.dtype == np.float64
        assert built.tobytes() == h.real.tobytes()

    def test_gap_modes_at_design_ratio(self):
        h = om.build_honeycomb_flake(om.Couplings(j=400e6, j_prime=204e6), [7.3e9] * 24)
        rel = np.sort(np.abs(np.linalg.eigvalsh(h.matrix) - 7.3e9))
        # four modes inside the band gap, clearly separated from the bands
        assert rel[3] < 0.3 * 400e6
        assert rel[4] > 0.7 * 400e6

    def test_zero_couplings_diagonal(self):
        freqs = 7.3e9 + np.arange(24) * 1e6
        h = om.build_honeycomb_flake(om.Couplings(j=0.0, j_prime=0.0), freqs).matrix
        assert np.allclose(h, np.diag(freqs))

    def test_strong_strain_localizes_gap_modes_on_edge_sites(self):
        h = om.build_honeycomb_flake(om.Couplings(j=1e9, j_prime=0.15e9), [7.3e9] * 24)
        modes = om.diagonalize(h)
        eta = om.participation(modes).eta
        rel = modes.eigenfreqs - 7.3e9
        gap_modes = np.argsort(np.abs(rel))[:4]
        edge = [s - 1 for s in om.FLAKE_EDGE_SITES]
        for k in gap_modes:
            assert eta[k][edge].sum() > 0.9

    def test_spec_refuses_chain_couplings(self):
        sites = (om.SiteParams(7e9, 2e6, 10.0, 10.0),) * 24
        for cp in (om.Couplings(j=1e9, j_prime=0.5e9, j3=1e6),
                   om.Couplings(j=1e9, j_prime=0.5e9, j3_prime=1e6)):
            with pytest.raises(ValueError, match="chain couplings"):
                om.LatticeSpec(om.Topology.HONEYCOMB_FLAKE, 24, sites, cp)
        assert om.LatticeSpec(om.Topology.SSH_CHAIN, 24, sites, cp).couplings.j3_prime == 1e6

    def test_rejects_wrong_site_count_and_chain_couplings(self):
        with pytest.raises(ValueError):
            om.build_honeycomb_flake(om.Couplings(j=1e9, j_prime=0.5e9), [7e9] * 23)
        with pytest.raises(ValueError):
            om.build_honeycomb_flake(om.Couplings(j=1e9, j_prime=0.5e9, j3=1e6), [7e9] * 24)


class TestRibbon:
    def test_strain_free_zigzag_edge_states(self):
        h = om.build_ribbon_hamiltonian(
            om.RibbonOrientation.ZIGZAG, 100, 0.9 * np.pi, om.Couplings(j=1.0, j_prime=1.0)
        )
        assert not h.is_real
        energies = np.linalg.eigvalsh(h.matrix)
        assert np.sum(np.abs(energies) < 1e-3) == 2

    @pytest.mark.parametrize("orientation", list(om.RibbonOrientation))
    def test_chiral_symmetric_spectrum_at_k0(self, orientation):
        h = om.build_ribbon_hamiltonian(orientation, 30, 0.0, om.Couplings(j=1.0, j_prime=1.0),
                                        cavity_freq=5.0)
        energies = np.sort(np.linalg.eigvalsh(h.matrix) - 5.0)
        assert np.allclose(energies, -energies[::-1], atol=1e-12)

    def test_tilted_armchair_hosts_edge_states_for_most_k(self):
        j, jp = 1.0, 0.51
        ks = np.linspace(-np.pi, np.pi, 65)
        valid = hosting = 0
        for k in ks:
            curve = om.ribbon_bulk_curve(om.RibbonOrientation.TILTED_ARMCHAIR, float(k), j, jp, 2048)
            if not curve.is_gapped():
                continue
            valid += 1
            if om.zak_phase(curve) == np.pi:
                hosting += 1
        assert hosting / valid > 0.75

    @pytest.mark.parametrize("orientation", list(om.RibbonOrientation))
    def test_bulk_band_consistency_at_large_width(self, orientation):
        # a k_par trivial for every cut at this strain: all finite-width
        # energies inside the bulk band within O(1/width)
        width, k_par, j, jp = 120, 0.7, 1.0, 0.8
        couplings = om.Couplings(j=j, j_prime=jp)
        assert om.winding_number(om.ribbon_bulk_curve(orientation, k_par, j, jp)) == 0
        h = om.build_ribbon_hamiltonian(orientation, width, k_par, couplings)
        energies = np.linalg.eigvalsh(h.matrix)
        mag = np.abs(om.ribbon_rho(orientation, np.linspace(-np.pi, np.pi, 4096), k_par, j, jp))
        pad = 5.0 / width
        assert np.abs(energies).max() <= mag.max() + pad
        assert np.abs(energies).min() >= mag.min() - pad
        assert mag.max() - np.abs(energies).max() < pad

    def test_rejects_bad_width_and_kpar(self):
        with pytest.raises(ValueError):
            om.build_ribbon_hamiltonian(om.RibbonOrientation.ZIGZAG, 0, 0.0, IDEAL)
        with pytest.raises(ValueError):
            om.build_ribbon_hamiltonian(om.RibbonOrientation.ZIGZAG, 3, 4.0, IDEAL)


class TestDiagonalize:
    def test_dimer_analytic(self):
        h = om.build_ssh_chain(1, om.Couplings(j=0.3e9, j_prime=0.0), [WC, WC])
        modes = om.diagonalize(h)
        assert np.allclose(modes.eigenfreqs, [WC - 0.3e9, WC + 0.3e9])
        assert np.allclose(np.abs(modes.modeshapes), 1 / np.sqrt(2))
        # sign convention: first entries positive
        assert (modes.modeshapes[:, 0] > 0).all()

    def test_paper_chain_against_oracle(self):
        modes = om.diagonalize(om.build_ssh_chain(5, PAPER, [WC] * 10))
        oracle = np.linalg.eigvalsh(paper_chain_oracle())
        assert np.allclose(modes.eigenfreqs, oracle, rtol=1e-12)
        # two mid-gap modes near the cavity frequency
        rel = modes.eigenfreqs - WC
        assert np.sum(np.abs(rel) < 230e6) == 2

    def test_diagonal_matrix_gives_permutation(self):
        freqs = np.array([7.3e9, 7.1e9, 7.2e9])
        modes = om.diagonalize(om.CouplingHamiltonian(np.diag(freqs)))
        assert np.allclose(modes.eigenfreqs, np.sort(freqs))
        perm = np.abs(modes.modeshapes)
        assert np.allclose(perm @ perm.T, np.eye(3))
        assert set(np.round(perm.ravel(), 12)) == {0.0, 1.0}

    def test_reconstruction_roundtrip(self):
        h = om.build_ssh_chain(5, PAPER, [WC] * 10)
        modes = om.diagonalize(h)
        back = modes.modeshapes.T @ np.diag(modes.eigenfreqs) @ modes.modeshapes
        assert np.linalg.norm(back - h.matrix) < 1e-8 * np.linalg.norm(h.matrix)

    def test_complex_ribbon_unitary(self):
        h = om.build_ribbon_hamiltonian(om.RibbonOrientation.ARMCHAIR, 12, 1.1,
                                        om.Couplings(j=1.0, j_prime=0.51), cavity_freq=7.0)
        modes = om.diagonalize(h)
        gram = modes.modeshapes @ modes.modeshapes.conj().T
        assert np.abs(gram - np.eye(24)).max() < 1e-10
        diag = modes.modeshapes @ h.matrix @ modes.modeshapes.conj().T
        assert np.abs(diag - np.diag(modes.eigenfreqs)).max() < 1e-8 * np.abs(h.matrix).max()

    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 2.0], [3.0, 1.0]])
        with pytest.raises(ValueError):
            om.CouplingHamiltonian(bad)

    def test_hermiticity_invariant_on_builders(self):
        for h in (
            om.build_ssh_chain(4, PAPER, [WC] * 8),
            om.build_honeycomb_flake(om.Couplings(j=4e8, j_prime=2e8, j2=4e7), [7.3e9] * 24),
            om.build_ribbon_hamiltonian(om.RibbonOrientation.TILTED_ZIGZAG, 9, 0.7,
                                        om.Couplings(j=1e9, j_prime=5e8)),
        ):
            m = h.matrix
            assert np.abs(m - m.conj().T).max() <= 1e-9 * np.abs(m).max()


def _clusters(freqs):
    """The runs of two or more eigenvalues that ``diagonalize`` treats as one
    degenerate cluster, as slices."""
    scale = max(np.abs(freqs).max(), 1.0)
    cuts = [0, *(np.flatnonzero(np.diff(freqs) > om.lattice.DEGENERACY_RTOL * scale) + 1),
            len(freqs)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1]


def _complex_three_fold_cluster():
    """A random complex Hermitian 6 x 6 matrix with eigenvalues 1, 2, 2, 2, 3, 4."""
    rng = np.random.default_rng(5)
    u = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    m = (u * [1.0, 2.0, 2.0, 2.0, 3.0, 4.0]) @ u.conj().T
    return om.CouplingHamiltonian((m + m.conj().T) / 2)


class TestDegenerateClusters:
    """The rows of a degenerate cluster come from its projector, so they do not
    depend on the basis of the cluster that the eigensolver returns."""

    CASES = {  # each Hamiltonian and the sizes of its clusters
        "uncoupled-chain": (lambda: om.build_ssh_chain(3, om.Couplings(j=0.0, j_prime=0.0),
                                                       [WC] * 6), [6]),
        "isotropic-flake": (lambda: om.build_honeycomb_flake(om.Couplings(j=1e8, j_prime=1e8),
                                                             [5e9] * 24), [2, 2, 3, 2, 2, 3, 2, 2]),
        "complex-3-fold": (_complex_three_fold_cluster, [3]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rows_do_not_depend_on_the_eigensolver_basis(self, case, monkeypatch):
        build, sizes = self.CASES[case]
        h = build()
        freqs, vecs = np.linalg.eigh(h.matrix)
        clusters = _clusters(freqs)
        assert [c.stop - c.start for c in clusters] == sizes
        rows = om.diagonalize(h).modeshapes
        assert np.abs(rows @ rows.conj().T - np.eye(h.n_sites)).max() < 1e-12
        for c in clusters:
            projector = vecs[:, c] @ vecs[:, c].conj().T
            assert np.abs(rows[c].conj().T @ rows[c] - projector).max() < 1e-12
        rng = np.random.default_rng(11)
        for _ in range(5):
            rotated = vecs.copy()
            for c in clusters:  # a random orthogonal (unitary) basis change of the cluster
                d = c.stop - c.start
                z = rng.normal(size=(d, d))
                if np.iscomplexobj(vecs):
                    z = z + 1j * rng.normal(size=(d, d))
                rotated[:, c] = rotated[:, c] @ np.linalg.qr(z)[0]
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigh", lambda m, rotated=rotated: (freqs, rotated))
                again = om.diagonalize(h).modeshapes
            assert np.abs(again - rows).max() < 1e-12


class TestParticipation:
    def test_identity_modeshapes(self):
        modes = om.ModeSet(np.array([1.0, 2.0, 3.0]), np.eye(3))
        assert np.allclose(om.participation(modes).eta, np.eye(3))

    def test_dimer_half(self):
        h = om.build_ssh_chain(1, om.Couplings(j=0.3e9, j_prime=0.0), [WC, WC])
        eta = om.participation(om.diagonalize(h)).eta
        assert np.allclose(eta, 0.5)

    def test_midgap_mode_edge_weight(self):
        # hybridized edge state: equal weight on both outer sites, small interior
        modes = om.diagonalize(om.build_ssh_chain(5, IDEAL, [WC] * 10))
        eta = om.participation(modes).eta
        for k in (4, 5):
            assert eta[k, 0] == pytest.approx(eta[k, 9], rel=1e-9)
            # frozen from the dense eigensolve oracle: eta_edge = 0.29478090
            assert eta[k, 0] == pytest.approx(0.29478090, abs=2e-8)
            assert eta[k][[3, 4, 5, 6]].max() < 0.1

    def test_doubly_stochastic_random_orthogonal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
            eta = om.participation(om.ModeSet(np.arange(8.0), q.T)).eta
            assert np.abs(eta.sum(axis=0) - 1).max() < 1e-10
            assert np.abs(eta.sum(axis=1) - 1).max() < 1e-10


class TestApplyDisorder:
    def test_sigma_zero_identity(self):
        h = om.build_ssh_chain(3, IDEAL, [WC] * 6)
        assert np.array_equal(om.apply_disorder(h, 0.0, 42).matrix, h.matrix)

    @pytest.mark.parametrize("sigma", [0.1000001, 2.0, -0.001, float("nan"), float("inf")])
    def test_sigma_outside_the_cap_is_refused(self, sigma):
        # at sigma = 2 the factors 1 + N(0, sigma) reach far below 0: cavity
        # frequencies of about -3e10 Hz
        h = om.build_ssh_chain(3, IDEAL, [WC] * 6)
        with pytest.raises(ValueError, match=r"sigma must lie in \[0, 0\.1\]"):
            om.apply_disorder(h, sigma, 3)

    def test_sigma_at_the_cap_is_accepted(self):
        h = om.build_ssh_chain(3, IDEAL, [WC] * 6)
        assert np.all(np.diag(om.apply_disorder(h, 0.1, 3).matrix) > 0)

    def test_deterministic_per_seed(self):
        h = om.build_ssh_chain(3, IDEAL, [WC] * 6)
        a = om.apply_disorder(h, 0.003, 42).matrix
        b = om.apply_disorder(h, 0.003, 42).matrix
        c = om.apply_disorder(h, 0.003, 43).matrix
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # couplings untouched
        assert np.array_equal(a - np.diag(np.diag(a)), h.matrix - np.diag(np.diag(h.matrix)))

    def test_sample_std_matches_sigma(self):
        # Monte-Carlo oracle: sample std of each diagonal entry ~ sigma * wc
        h = om.build_ssh_chain(2, IDEAL, [WC] * 4)
        sigma = 0.06
        diag = np.array([np.diag(om.apply_disorder(h, sigma, s).matrix) for s in range(4000)])
        stds = diag.std(axis=0, ddof=1)
        assert np.abs(stds / (sigma * WC) - 1).max() < 0.05


def test_chiral_symmetry_of_bipartite_couplings():
    couplings = om.Couplings(j=470e6, j_prime=700e6, j3=27e6, j3_prime=37e6)
    freqs = np.linalg.eigvalsh(om.build_ssh_chain(5, couplings, [WC] * 10).matrix)
    rel = np.sort(freqs - WC)
    assert np.abs(rel + rel[::-1]).max() < 1e-9 * WC


def test_lattice_spec_validation():
    site = om.SiteParams(cavity_freq=WC, mech_freq=2e6, mech_linewidth=10.0, g0=10.0)
    with pytest.raises(ValueError):
        om.LatticeSpec(kind=om.Topology.SSH_CHAIN, n_sites=5, sites=(site,) * 5, couplings=IDEAL)
    with pytest.raises(ValueError):
        om.LatticeSpec(kind=om.Topology.HONEYCOMB_FLAKE, n_sites=20, sites=(site,) * 20,
                       couplings=IDEAL)
    with pytest.raises(ValueError):
        om.SiteParams(cavity_freq=-1.0, mech_freq=2e6, mech_linewidth=1.0, g0=1.0)
    spec = om.LatticeSpec(kind=om.Topology.SSH_CHAIN, n_sites=4, sites=(site,) * 4,
                          couplings=IDEAL)
    assert om.build_lattice(spec).n_sites == 4
