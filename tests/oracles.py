"""Brute-force reference implementations used to check the fast numpy paths.

Everything here is written with plain Python loops and math.fsum so the
results come from a different code path (and higher working precision) than
the library under test.  The renderers are the exception.
render_signal_oracle builds the dense signal one ray at a time with the
library's arithmetic, so a rendered tensor's signal taps and across must
agree with it bit for bit.  Its |s| (scaled_norm_oracle) is the accumulated
taps' norm, with each pixel's row scaled by a power of two first; the render
computes |s| from the rays' separable beam weights instead, so along agrees
to a few rounding errors of |s|.  render_cir_oracle draws noise on every tap
of the dense tensor, and is the reference for the distribution of the lazy
renderer's noise.  The morphology oracles are the other exception: they
are the scipy.ndimage calls that segmentation's numpy min/max filters
replace, and those filters must agree with them bit for bit.  So are the
tensor-file oracles: save_cir_tensor_oracle casts the whole dense view at
once and load_cir_tensor_oracle promotes the whole file to complex128, where
fileio streams elevation rows and keeps complex64; the files and every read
of the loaded tensor must agree with them bit for bit.  The CSV oracles are
the table readers and writers as they were before fileio gained its one row
loop and one writer: the loaders must return what they return, and the
writers must write their bytes.  nelder_mead_oracle is scipy's
Nelder-Mead with the options gev_fit_mle once passed it; the numpy port
must return its x bit for bit.
"""

import csv
import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.optimize import minimize

from nlosid.chansim import LOS, NLOS, _STREAM_NOISE, CirTensor, rng_stream
from nlosid.errors import DataFormatError
from nlosid.experiment import _CURVE_BINS, _CURVE_POINTS
from nlosid.fileio import TensorManifest, _read_text, load_document
from nlosid.gevstats import _FIT_TOL, _MAX_FIT_ITER, gev_cdf, gev_pdf
from nlosid.metrics import METRIC_NAMES, FeatureVector
from nlosid.pas import wrap_angle_deg


def kurtosis_oracle(values) -> float:
    """Fourth central moment over squared second central moment."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = math.fsum(vals) / n
    m2 = math.fsum((v - mean) ** 2 for v in vals) / n
    m4 = math.fsum((v - mean) ** 4 for v in vals) / n
    return m4 / (m2 * m2)


def nelder_mead_oracle(objective, x0):
    """scipy's OptimizeResult for the search gevstats._nelder_mead ports."""
    return minimize(objective, x0=x0, method="Nelder-Mead",
                    options={"maxiter": _MAX_FIT_ITER, "fatol": _FIT_TOL,
                             "xatol": 1e-8})


def delay_moments_oracle(magnitudes, delays_ns):
    """Power-weighted mean delay and RMS spread from tap magnitudes."""
    powers = [float(m) ** 2 for m in magnitudes]
    total = math.fsum(powers)
    mean = math.fsum(p * float(d) for p, d in zip(powers, delays_ns)) / total
    var = math.fsum(p * (float(d) - mean) ** 2
                    for p, d in zip(powers, delays_ns)) / total
    return mean, math.sqrt(var)


def angular_moments_oracle(az_deg, el_deg, weights, mode):
    """Normalized 2x2 angular moment matrix entries as (m11, m12, m22).

    mode "covariance" returns the power-weighted covariance; mode
    "kurtosis" returns fourth-order moments scaled by products of the
    matching variances.
    """
    total = math.fsum(float(w) for w in weights)
    w = [float(wi) / total for wi in weights]
    az = [float(a) for a in az_deg]
    el = [float(e) for e in el_deg]
    mean_az = math.fsum(wi * a for wi, a in zip(w, az))
    mean_el = math.fsum(wi * e for wi, e in zip(w, el))
    da = [a - mean_az for a in az]
    de = [e - mean_el for e in el]
    s_aa = math.fsum(wi * x * x for wi, x in zip(w, da))
    s_ee = math.fsum(wi * y * y for wi, y in zip(w, de))
    s_ae = math.fsum(wi * x * y for wi, x, y in zip(w, da, de))
    if mode == "covariance":
        return s_aa, s_ae, s_ee
    m4_a = math.fsum(wi * x ** 4 for wi, x in zip(w, da))
    m4_e = math.fsum(wi * y ** 4 for wi, y in zip(w, de))
    m22 = math.fsum(wi * x * x * y * y for wi, x, y in zip(w, da, de))
    return m4_a / (s_aa * s_aa), m22 / (s_aa * s_ee), m4_e / (s_ee * s_ee)


def eigen_ratio_oracle(m11, m12, m22) -> float:
    """Smallest over largest eigenvalue of a symmetric 2x2 matrix."""
    half_trace = (m11 + m22) / 2.0
    root = math.hypot((m11 - m22) / 2.0, m12)
    return (half_trace - root) / (half_trace + root)


def pas_pixel_oracle(taps, tap_spacing_ns) -> float:
    """Integrated power of one pixel's impulse response."""
    return math.fsum(abs(h) ** 2 for h in taps) * tap_spacing_ns


def connected_components(pixels, n_az, wrap):
    """8-connected components of a pixel set, wrapping azimuth if asked.

    Returns a list of frozensets.
    """
    remaining = set(pixels)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            i, j = frontier.pop()
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    nj = j + dj
                    if wrap:
                        nj %= n_az
                    p = (i + di, nj)
                    if p in remaining:
                        remaining.remove(p)
                        comp.add(p)
                        frontier.append(p)
        comps.append(frozenset(comp))
    return comps


def smooth_db_oracle(db, radius: int, wrap: bool):
    """segmentation._smooth_db through scipy.ndimage: grey opening then
    closing with a disc footprint, mode nearest, on the map padded
    circularly by min(4 * radius, n_az) azimuth columns when wrap."""
    if radius == 0:
        return db
    r = np.arange(-radius, radius + 1)
    footprint = (r[:, None] ** 2 + r[None, :] ** 2) <= radius ** 2
    pad = min(4 * radius, db.shape[1]) if wrap else 0
    work = np.concatenate([db[:, -pad:], db, db[:, :pad]], axis=1) if pad \
        else db
    work = ndimage.grey_opening(work, footprint=footprint, mode="nearest")
    work = ndimage.grey_closing(work, footprint=footprint, mode="nearest")
    return work[:, pad:work.shape[1] - pad] if pad else work


def marker_maximum_oracle(smoothed, wrap: bool):
    """The 3x3 maximum that segmentation's markers compare against, through
    scipy.ndimage: elevation mode nearest, azimuth wrap when asked."""
    modes = ("nearest", "wrap") if wrap else ("nearest", "nearest")
    return ndimage.maximum_filter(smoothed, size=3, mode=modes)


def scaled_norm_oracle(signal) -> np.ndarray:
    """|s| of each pixel of an (n_el, n_az, n_taps) complex signal, each
    pixel's row scaled by a power of two to a largest entry in [0.5, 1)
    first, so its sum of squares cannot underflow even for subnormal rows."""
    rows = signal.view(float)
    exponent = np.frexp(np.max(np.abs(rows), axis=-1))[1]
    scaled = np.ldexp(rows, -exponent[..., None])
    return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), exponent)


def render_signal_oracle(clusters, config, seed, realization=0):
    """(signal_taps, signal, along, across) of chansim.render_cir, built ray
    by ray: each ray's beam weights from scalar angles, added as
    coeff * np.outer(amp_el, amp_az) into a per-tap accumulator in cluster
    and ray order, the taps then stacked in increasing order.  Same
    arithmetic, one ray at a time, so the render's signal and across must
    agree bit for bit, signs of zero included.  along is
    scaled_norm_oracle(signal) plus the render's draw of the noise along
    s."""
    grid = config.grid()
    az = grid.azimuths_deg
    el = grid.elevations_deg
    ln2 = math.log(2.0)
    peak_amp = 0.0
    taps = {}
    for cluster in clusters:
        for ray in cluster.rays:
            delay = cluster.base_delay_ns + ray.delay_offset_ns
            tap = int(round(delay * config.sample_rate_ghz))
            d_az = wrap_angle_deg(az - (cluster.center_az_deg
                                        + ray.az_offset_deg))
            d_el = el - (cluster.center_el_deg + ray.el_offset_deg)
            amp_az = np.exp(-2.0 * ln2 * (d_az / config.hpbw_az_deg) ** 2)
            amp_el = np.exp(-2.0 * ln2 * (d_el / config.hpbw_el_deg) ** 2)
            coeff = ray.amplitude * np.exp(1j * ray.phase_rad)
            acc = taps.setdefault(tap, np.zeros(grid.shape, dtype=complex))
            acc += coeff * np.outer(amp_el, amp_az)
            peak_amp = max(peak_amp, ray.amplitude)
    signal_taps = sorted(taps)
    signal = np.empty(grid.shape + (len(signal_taps),), dtype=complex)
    for n, k in enumerate(signal_taps):
        signal[..., n] = taps[k]
    along = across = None
    if config.snr_db is not None and peak_amp > 0.0:
        rng = rng_stream(seed, _STREAM_NOISE, realization)
        sigma2 = peak_amp ** 2 * 10.0 ** (-config.snr_db / 10.0) / 2.0
        along = (scaled_norm_oracle(signal)
                 + math.sqrt(sigma2) * rng.standard_normal(grid.shape))
        across = sigma2 * rng.chisquare(2 * config.n_taps - 1, grid.shape)
    return np.array(signal_taps, dtype=int), signal, along, across


def render_cir_oracle(clusters, config, seed, realization=0) -> np.ndarray:
    """Dense (n_el, n_az, n_taps) tensor with noise drawn on every tap.

    The taps without noise are render_signal_oracle's, so a noiseless
    render must equal this bit for bit.
    """
    grid = config.grid()
    taps, signal, _, _ = render_signal_oracle(
        clusters, replace(config, snr_db=None), seed, realization)
    data = np.zeros((grid.n_el, grid.n_az, config.n_taps), dtype=complex)
    data[:, :, taps] = signal
    peak_amp = max([0.0] + [ray.amplitude for cluster in clusters
                            for ray in cluster.rays])
    if config.snr_db is not None and peak_amp > 0.0:
        rng = rng_stream(seed, _STREAM_NOISE, realization)
        noise_power = peak_amp ** 2 * 10.0 ** (-config.snr_db / 10.0)
        sigma = math.sqrt(noise_power / 2.0)
        data += sigma * (rng.standard_normal(data.shape)
                         + 1j * rng.standard_normal(data.shape))
    return data


def ratio_score_oracle(model, fv, names, floor):
    """(score, support violation) of one row, one scalar density at a time:
    -inf at the first metric outside both supports, else the sum of log
    density ratios with floor standing in for a zero density."""
    score, violation = 0.0, False
    for name in names:
        x = fv.metric(name)
        pair = model.tables[name]
        f_los, f_nlos = gev_pdf(x, pair.los), gev_pdf(x, pair.nlos)
        if f_los == 0.0 and f_nlos == 0.0:
            return -math.inf, True
        violation = violation or f_los == 0.0 or f_nlos == 0.0
        score += ((math.log(f_los) if f_los > 0.0 else floor)
                  - (math.log(f_nlos) if f_nlos > 0.0 else floor))
    return score, violation


def network_score_oracle(model, fv) -> float:
    """LOS softmax output of one row through plain-Python tanh layers."""
    a = [(v - m) / s for v, m, s in zip(fv.values(), model.feature_means,
                                        model.feature_scales)]
    for w, b in ((model.iw, model.b1), (model.lw21, model.b2)):
        a = [math.tanh(math.fsum(wi * ai for wi, ai in zip(row, a)) + bj)
             for row, bj in zip(w, b)]
    z = [math.fsum(wi * ai for wi, ai in zip(row, a)) + bj
         for row, bj in zip(model.lw32, model.b3)]
    top = max(z)
    e = [math.exp(v - top) for v in z]
    return e[0] / (e[0] + e[1])


def save_cir_tensor_oracle(cir, bin_path) -> None:
    """The tensor file's binary half, cast from the dense view in one go."""
    with np.errstate(over="raise"):
        data = cir.data.astype("<c8")
    data.tofile(bin_path)


def load_cir_tensor_oracle(manifest_path) -> CirTensor:
    """A tensor file read whole and promoted to complex128 before the dense
    tensor is built on it."""
    manifest_path = Path(manifest_path)
    manifest = load_document(manifest_path, TensorManifest)
    shape = manifest.grid.shape + (manifest.n_taps,)
    bin_path = manifest_path.with_name(manifest.data_file)
    data = np.fromfile(bin_path, dtype="<c8").reshape(shape).astype(complex)
    return CirTensor.dense(manifest.grid, manifest.sample_rate_ghz, data)


_FEATURE_HEADER = list(METRIC_NAMES) + ["label"]
_SWEEP_HEADER = ["az_deg", "el_deg", "freq_ghz", "re", "im"]


def read_csv_oracle(path) -> tuple[list, list]:
    """A CSV file's stripped header fields, and (location, stripped fields)
    for each non-blank line after it; the location names the file, line
    and offset in the bytes as stored, for error messages."""
    _read_text(path)        # refuses a file that is not UTF-8
    raw = Path(path).read_bytes().splitlines(keepends=True)
    if not raw:
        raise DataFormatError(f"{path}: file is empty")
    lines = [line.decode("utf-8") for line in raw]
    records = []
    offset = len(raw[0])
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            records.append((f"{path}: line {lineno} (byte {offset})",
                            [p.strip() for p in line.split(",")]))
        offset += len(raw[lineno - 1])
    return [h.strip() for h in lines[0].split(",")], records


def load_features_oracle(path) -> list:
    """Returns a list of (realization | None, FeatureVector)."""
    header, records = read_csv_oracle(path)
    if header == ["realization"] + _FEATURE_HEADER:
        with_realization = True
    elif header == _FEATURE_HEADER:
        with_realization = False
    else:
        raise DataFormatError(
            f"{path}: header must be {','.join(_FEATURE_HEADER)} with an "
            f"optional leading realization column, got {','.join(header)!r}")
    out = []
    for where, parts in records:
        if len(parts) != len(header):
            raise DataFormatError(
                f"{where}: expected {len(header)} fields, got {len(parts)}")
        try:
            realization = int(parts[0]) if with_realization else None
            vals = [float(p) for p in
                    (parts[1:6] if with_realization else parts[0:5])]
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
        out.append((realization,
                    FeatureVector(*vals, label=parts[-1] or None)))
    return out


def load_sweep_csv_oracle(path) -> dict:
    """Parse a sweep file into {(az_deg, el_deg): (freqs_ghz, complex values)}
    with each direction's rows sorted by frequency."""
    header, records = read_csv_oracle(path)
    if header != _SWEEP_HEADER:
        raise DataFormatError(
            f"{path}: header must be {','.join(_SWEEP_HEADER)}, "
            f"got {','.join(header)!r}")
    per_direction: dict = {}
    for where, parts in records:
        if len(parts) != 5:
            raise DataFormatError(
                f"{where}: expected 5 fields, got {len(parts)}")
        try:
            az, el, freq, re, im = (float(p) for p in parts)
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}") from exc
        per_direction.setdefault((az, el), []).append((freq, re, im))
    out = {}
    for key in sorted(per_direction):
        rows = sorted(per_direction[key])
        freqs = np.array([r[0] for r in rows])
        values = np.array([complex(r[1], r[2]) for r in rows])
        out[key] = (freqs, values)
    return out


def save_features_oracle(path, rows) -> None:
    """rows: iterable of (realization | None, FeatureVector).  The
    realization column is written when any row carries one."""
    rows = list(rows)
    with_realization = any(r is not None for r, _ in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (["realization"] if with_realization else []) + _FEATURE_HEADER
    writer.writerow(header)
    for realization, fv in rows:
        record = [repr(float(v)) for v in fv.values()] + [fv.label or ""]
        if with_realization:
            record = [str(0 if realization is None else int(realization))] \
                + record
        writer.writerow(record)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def save_verdicts_oracle(path, rows) -> None:
    """rows: iterable of (realization | None, Verdict, truth | None)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["realization", "decision", "score",
                     "support_violation", "truth"])
    for realization, verdict, truth in rows:
        writer.writerow([
            "" if realization is None else int(realization),
            verdict.decision, repr(float(verdict.score)),
            int(verdict.support_violation), truth or "",
        ])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def write_curves_oracle(out_dir: Path, train_rows: list, mlr_model) -> list:
    """One CSV per metric and class: fitted pdf/cdf against the empirical
    histogram and staircase."""
    curve_dir = out_dir / "curves"
    curve_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for metric in METRIC_NAMES:
        for label, key in ((LOS, "los"), (NLOS, "nlos")):
            values = np.sort(np.array([f.metric(metric) for f in train_rows
                                       if f.label == label]))
            params = mlr_model.params(metric, label)
            lo, hi = values[0], values[-1]
            span = hi - lo if hi > lo else max(abs(hi), 1.0)
            x = np.linspace(lo - 0.05 * span, hi + 0.05 * span, _CURVE_POINTS)
            hist, edges = np.histogram(values, bins=_CURVE_BINS,
                                       density=True)
            bin_idx = np.clip(np.searchsorted(edges, x, side="right") - 1,
                              0, _CURVE_BINS - 1)
            emp_pdf = np.where((x >= edges[0]) & (x <= edges[-1]),
                               hist[bin_idx], 0.0)
            emp_cdf = np.searchsorted(values, x, side="right") / len(values)
            fit_pdf = gev_pdf(x, params)
            fit_cdf = gev_cdf(x, params)
            name = f"{metric}_{key}.csv"
            lines = ["x,fitted_pdf,fitted_cdf,empirical_pdf,empirical_cdf"]
            for k in range(len(x)):
                lines.append(",".join(repr(float(v)) for v in (
                    x[k], fit_pdf[k], fit_cdf[k], emp_pdf[k], emp_cdf[k])))
            (curve_dir / name).write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
            names.append(f"curves/{name}")
    return names
