"""Simulation and analysis toolkit for lattices of coupled optomechanical LC circuits.

All frequencies are ordinary frequencies (omega / 2 pi) in Hz.
"""

from .lattice import (
    CouplingHamiltonian,
    Couplings,
    LatticeSpec,
    ModeSet,
    ParticipationMatrix,
    RibbonOrientation,
    SiteParams,
    Topology,
    apply_disorder,
    build_honeycomb_flake,
    build_lattice,
    build_ribbon_hamiltonian,
    build_ssh_chain,
    diagonalize,
    flake_bonds,
    flake_site_positions,
    participation,
    FLAKE_EDGE_SITES,
)
from .topology import (
    BulkCurve,
    EdgePrediction,
    GaplessCurveError,
    OutOfModelError,
    bulk_bands_ssh,
    bulk_rho_ssh,
    edge_prediction_finite,
    graphene_bulk,
    ribbon_bulk_curve,
    ribbon_edge_prediction,
    ribbon_rho,
    ssh_bulk_curve,
    winding_number,
    zak_phase,
)
from .circuit import (
    CircuitCell,
    WireCurve,
    coaxial_loop_mutual,
    coupling_rate,
    dimer_eigenfrequencies,
    drumhead_frequency,
    infinite_chain_band,
    mutual_inductance_neumann,
    passband_edges,
)
from .measure import (
    DampingConfig,
    OrthogonalizationError,
    RingdownFitError,
    RingdownTrace,
    SinkhornError,
    assign_signs,
    damping_slope,
    effective_damping,
    fit_ringdown,
    fit_ringdowns,
    intracavity_photons,
    optomech_damping,
    orthogonalize,
    reconstruct_hamiltonian,
    relative_error,
    relative_g0,
    sideband_thermometry,
    simulate_ringdown,
    sinkhorn_normalize,
    unnormalized_eta,
)
from .experiment import (
    MeasurementDataset,
    ModeReadout,
    RecoveryResult,
    analytic_slope_matrix,
    calibrate_drive_flux,
    recover,
    recover_from_slopes,
    recover_noiseless,
    simulate_measurement,
)
from .disorder import (
    EnsembleResult,
    ZetaInversion,
    hybridization_factor,
    invert_zeta,
    run_ensemble,
)

__version__ = "1.0.0"
