"""Seemingly-unrelated regression: Zellner estimation and profile likelihood.

The system is M linear regressions sharing an M x M error covariance.
The residual-moment estimator and the blockwise GLS estimator alternate
to a fixed point; the profile log-likelihood over the stacked
coefficient vector is the sampling target.  The Kronecker structure is
exploited blockwise; the MN x MN weighting matrix is never formed.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import io
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..density import TargetDensity
from ..linalg import (IndefiniteMatrixError, LOG_2PI, chol_lower,
                      log_det_from_chol, solve_lower, spd_solve)

logger = logging.getLogger(__name__)

GRUNFELD_SHA256 = "75b410a585f30454d4ff7eedd0d804740d81bf4d634d6f864114d1768b6d9e9e"


class SurParseError(ValueError):
    pass


class UnidentifiableSystemError(ValueError):
    pass


@dataclass(frozen=True)
class SurData:
    """M equations, N observations each, J covariates per equation."""

    M: int
    N: int
    J: int
    Y: np.ndarray         # (M, N) responses
    X: np.ndarray         # (M, N, J) design blocks
    firms: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.M * self.J

    @property
    def y(self) -> np.ndarray:
        """Stacked response vector, equation-major, length M * N."""
        return self.Y.reshape(-1)

    def _moments(self):
        if "XtX" not in self._cache:
            self._cache["XtX"] = np.einsum("lni,mnj->lmij", self.X, self.X)
            self._cache["XtY"] = np.einsum("lni,mn->lmi", self.X, self.Y)
        return self._cache["XtX"], self._cache["XtY"]


def make_sur_data(Y: np.ndarray, X: np.ndarray, firms=()) -> SurData:
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    if Y.ndim != 2 or X.ndim != 3 or X.shape[:2] != Y.shape:
        raise ValueError(f"inconsistent shapes Y {Y.shape}, X {X.shape}")
    return SurData(M=Y.shape[0], N=Y.shape[1], J=X.shape[2], Y=Y, X=X,
                   firms=tuple(firms))


def load_sur_csv(path, first_years: int | None = None) -> SurData:
    """Read a firm/year panel CSV into SUR blocks.

    Columns: firm, year, invest, value, capital.  The design per firm is
    (1, value, capital) and the response is invest.  Firms are ordered
    by first appearance; `first_years` keeps only each firm's earliest
    years.  A file that is not UTF-8 text and a cell that is not a
    finite number are SurParseErrors naming the row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        rownum = raw.count(b"\n", 0, err.start) + 1
        raise SurParseError(
            f"row {rownum}: not UTF-8 text ({err.reason})") from err
    with io.StringIO(text, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"firm", "year", "invest", "value", "capital"}
        header = set(reader.fieldnames or [])
        if not required <= header:
            raise SurParseError(f"missing column(s): {sorted(required - header)}")
        firms: list = []
        panel: dict = {}
        for rownum, row in enumerate(reader, start=2):
            firm = row["firm"]
            try:
                year = int(row["year"])
                vals = (float(row["invest"]), float(row["value"]),
                        float(row["capital"]))
            except (TypeError, ValueError) as err:
                raise SurParseError(f"row {rownum}: non-numeric cell ({err})") from err
            if not all(map(math.isfinite, vals)):
                raise SurParseError(f"row {rownum}: non-finite cell in {vals}")
            if firm not in panel:
                firms.append(firm)
                panel[firm] = {}
            if year in panel[firm]:
                raise SurParseError(f"row {rownum}: duplicate (firm, year) "
                                    f"({firm!r}, {year})")
            panel[firm][year] = vals
    if not firms:
        raise SurParseError("no data rows")
    years_per_firm = []
    for firm in firms:
        years = sorted(panel[firm])
        if first_years is not None:
            years = years[:first_years]
        years_per_firm.append(years)
    n = len(years_per_firm[0])
    for firm, years in zip(firms, years_per_firm):
        if len(years) != n:
            raise SurParseError(f"ragged panel: firm {firm!r} has {len(years)} "
                                f"years, expected {n}")
    Y = np.empty((len(firms), n))
    X = np.empty((len(firms), n, 3))
    for m, (firm, years) in enumerate(zip(firms, years_per_firm)):
        for t, year in enumerate(years):
            invest, value, capital = panel[firm][year]
            Y[m, t] = invest
            X[m, t] = (1.0, value, capital)
    return make_sur_data(Y, X, firms=firms)


def grunfeld_path():
    return importlib.resources.files("alps.targets").joinpath("data/grunfeld.csv")


def load_grunfeld(first_years: int | None = 15) -> SurData:
    """Bundled investment panel (5 firms), checksum-validated at load."""
    resource = grunfeld_path()
    raw = resource.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != GRUNFELD_SHA256:
        raise SurParseError(f"bundled panel checksum mismatch: {digest}")
    with importlib.resources.as_file(resource) as p:
        return load_sur_csv(p, first_years=first_years)


def ols_theta(data: SurData) -> np.ndarray:
    """Per-equation least squares, stacked to length M * J."""
    parts = [np.linalg.lstsq(data.X[m], data.Y[m], rcond=None)[0]
             for m in range(data.M)]
    return np.concatenate(parts)


def _residuals(theta: np.ndarray, data: SurData) -> np.ndarray:
    th = np.asarray(theta, dtype=float).reshape(data.M, data.J)
    return data.Y - np.einsum("mnj,mj->mn", data.X, th)


def sur_sigma_hat(theta: np.ndarray, data: SurData) -> np.ndarray:
    """Residual cross-moment matrix (1/N) r_l^T r_m."""
    r = _residuals(theta, data)
    return (r @ r.T) / data.N


def sur_gls_theta(sigma: np.ndarray, data: SurData) -> np.ndarray:
    """Blockwise GLS: block (l, m) of the normal matrix is
    [sigma^{-1}]_{lm} X_l^T X_m; solved by Cholesky at size MJ x MJ."""
    sigma = np.asarray(sigma, dtype=float)
    chol_s = chol_lower(sigma)  # raises if sigma is not positive definite
    inv_chol = solve_lower(chol_s, np.eye(data.M))
    sigma_inv = inv_chol.T @ inv_chol
    xtx, xty = data._moments()
    a = (sigma_inv[:, :, None, None] * xtx).transpose(0, 2, 1, 3)
    a = a.reshape(data.dim, data.dim)
    b = np.einsum("lm,lmi->li", sigma_inv, xty).reshape(data.dim)
    try:
        chol_a = chol_lower(a)
    except IndefiniteMatrixError as err:
        raise UnidentifiableSystemError("unidentifiable system: normal matrix "
                                        "is singular") from err
    return spd_solve(chol_a, b)


def sur_profile_loglik(theta: np.ndarray, data: SurData) -> float:
    """-N log(2 pi) - (N/2) log det Sigma_hat(theta) - N, or -inf if the
    residual moment matrix is not positive definite."""
    sigma = sur_sigma_hat(theta, data)
    try:
        chol_s = chol_lower(sigma)
    except IndefiniteMatrixError:
        return -np.inf
    return float(-data.N * LOG_2PI - 0.5 * data.N * log_det_from_chol(chol_s)
                 - data.N)


def _require_identified(data: SurData) -> None:
    """UnidentifiableSystemError with N <= J observations per equation
    (OLS then fits every equation exactly) or N < M (the M x M residual
    cross-moment matrix then has rank at most N for every theta): either
    way the residual covariance is singular and log pi is -inf."""
    if data.N <= data.J:
        raise UnidentifiableSystemError(
            f"unidentifiable system: {data.N} observations per equation "
            f"for {data.J} covariates")
    if data.N < data.M:
        raise UnidentifiableSystemError(
            f"unidentifiable system: {data.N} observations per equation "
            f"for {data.M} equations")


@dataclass
class ZellnerResult:
    theta: np.ndarray
    sigma: np.ndarray
    iterations: int
    trajectory: list
    converged: bool


def zellner_iterate(data: SurData, tol: float = 1e-6,
                    max_iter: int = 200) -> ZellnerResult:
    """Alternate residual-moment and GLS estimation from the OLS start.

    Converged when the relative change of the fitted values
    ||X theta_new - X theta||_2 / ||X theta_new||_2 drops below tol.
    With N <= J observations per equation OLS fits every equation
    exactly, and with N < M the residual covariance has rank at most N:
    either way it is singular and the system is unidentified,
    UnidentifiableSystemError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    _require_identified(data)
    theta = ols_theta(data)
    trajectory = [sur_profile_loglik(theta, data)]
    fitted = data.Y - _residuals(theta, data)
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        sigma = sur_sigma_hat(theta, data)
        try:
            theta_new = sur_gls_theta(sigma, data)
        except IndefiniteMatrixError:
            rel_resid = (np.linalg.norm(_residuals(theta, data))
                         / max(np.linalg.norm(data.Y), 1e-300))
            if rel_resid < 1e-8:
                converged = True  # exact fit: OLS is already the fixed point
                break
            raise
        iterations = it
        fitted_new = data.Y - _residuals(theta_new, data)
        measure = (np.linalg.norm(fitted_new - fitted)
                   / np.linalg.norm(fitted_new))
        ll = sur_profile_loglik(theta_new, data)
        if trajectory and ll < trajectory[-1] - 1e-10:
            logger.debug("profile log-likelihood decreased at iteration %d "
                         "(%.6f -> %.6f)", it, trajectory[-1], ll)
        trajectory.append(ll)
        theta, fitted = theta_new, fitted_new
        if measure < tol:
            converged = True
            break
    return ZellnerResult(theta=theta, sigma=sur_sigma_hat(theta, data),
                         iterations=iterations, trajectory=trajectory,
                         converged=converged)


class SurProfileTarget(TargetDensity):
    """Profile log-likelihood as a sampling target over theta (dim M * J);
    UnidentifiableSystemError with N <= J or N < M observations per
    equation."""

    def __init__(self, data: SurData):
        _require_identified(data)
        super().__init__(dim=data.dim, name="sur_profile")
        self.data = data

    def _log_density_block(self, thetas: np.ndarray) -> np.ndarray:
        # one factorization per row
        return np.array([sur_profile_loglik(theta, self.data)
                         for theta in thetas])

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        data = self.data
        r = _residuals(theta, data)          # (M, N)
        sigma = (r @ r.T) / data.N
        w = spd_solve(chol_lower(sigma), r)
        return np.einsum("mnj,mn->mj", data.X, w).reshape(-1)
