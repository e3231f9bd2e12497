"""Episode scoring: tracking error, safety, responsiveness, MOT quality.

Everything here is computed from logged time series, never from live
simulator internals, so an episode replayed from its log directory scores
identically to the run that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricParams:
    tau_safety: float = 2.0           # [s] TTC hinge threshold
    alpha_resp: float = 1.0           # weight on V2X reaction time
    beta_resp: float = 1.0            # weight on update activation time
    gamma_smooth: float = 1.0         # weight on throttle variance
    brake_threshold: float = 0.1      # reaction detection
    steer_threshold: float = 0.05     # [rad] reaction detection
    match_radius: float = 2.0         # [m] MOT association


@dataclass(frozen=True)
class EpisodeMetrics:
    lateral_rmse: float
    heading_rmse_deg: float
    heading_mean_abs_deg: float
    completion: bool
    progress_fraction: float
    ttc_min: float                    # inf when nothing ever closed in
    collisions: int
    v2x_reaction_ms: float | None
    update_activation_s: float | None
    trigger_latency_ms: float | None
    steer_variance: float
    throttle_variance: float
    brake_energy: float
    mota: float | None
    motp: float | None
    id_switches: int
    false_positive_rate: float | None  # accepted false events / false events
    false_negative_rate: float | None  # unaccepted true events / true events
    termination: str
    sim_time: float


def lateral_rmse(cross_track) -> float:
    e = np.asarray(cross_track, dtype=float)
    if e.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(e * e)))


def heading_stats(errors_rad) -> tuple[float, float]:
    """(RMSE, mean absolute) of heading errors, both in degrees."""
    e = np.degrees(np.asarray(errors_rad, dtype=float))
    if e.size == 0:
        return 0.0, 0.0
    return float(np.sqrt(np.mean(e * e))), float(np.mean(np.abs(e)))


def command_variance(series) -> float:
    v = np.asarray(series, dtype=float)
    if v.size == 0:
        return 0.0
    return float(np.var(v))


def brake_energy(brake, speed, dt: float) -> float:
    """Proxy for dissipated energy: sum of brake * speed * dt."""
    b = np.asarray(brake, dtype=float)
    v = np.asarray(speed, dtype=float)
    return float(np.sum(b * v) * dt)


def v2x_reaction_ms(event_gen_time: float, control_rows,
                    params: MetricParams) -> float | None:
    """Time from event generation to the first braking or steering response.

    control_rows: iterable of (t, steering, throttle, brake), time ordered.
    """
    prev_steer = None
    for t, steering, _throttle, brake in control_rows:
        if t <= event_gen_time:
            prev_steer = steering
            continue
        steer_jump = (prev_steer is not None
                      and abs(steering - prev_steer) > params.steer_threshold)
        if brake > params.brake_threshold or steer_jump:
            return (t - event_gen_time) * 1000.0
        prev_steer = steering
    return None


def clear_mot(gt_by_tick: dict, tracks_by_tick: dict,
              match_radius: float) -> tuple[float | None, float | None, int]:
    """CLEAR-MOT with greedy persistence-preferring matching.

    gt_by_tick / tracks_by_tick: tick -> list of (object_id, x, y). Returns
    (MOTA, MOTP, id_switches); MOTP is reported as 1 - mean_dist / radius so
    that, like MOTA, larger is better. None when there is no ground truth.
    """
    ticks = sorted(gt_by_tick)
    gt_total = sum(len(gt_by_tick[k]) for k in ticks)
    if gt_total == 0:
        return None, None, 0

    fn = fp = idsw = 0
    dist_sum = 0.0
    match_count = 0
    last_match: dict = {}

    for k in ticks:
        gts = gt_by_tick.get(k, [])
        trs = tracks_by_tick.get(k, [])
        tr_pos = {tid: (x, y) for tid, x, y in trs}
        matched_gt: dict = {}
        used_tracks: set = set()

        # keep surviving pairs from the previous tick first
        for gid, gx, gy in gts:
            tid = last_match.get(gid)
            if tid is None or tid not in tr_pos or tid in used_tracks:
                continue
            tx, ty = tr_pos[tid]
            d = math.hypot(gx - tx, gy - ty)
            if d <= match_radius:
                matched_gt[gid] = (tid, d)
                used_tracks.add(tid)

        # greedy nearest pairs among the rest
        candidates = []
        for gid, gx, gy in gts:
            if gid in matched_gt:
                continue
            for tid, (tx, ty) in tr_pos.items():
                if tid in used_tracks:
                    continue
                d = math.hypot(gx - tx, gy - ty)
                if d <= match_radius:
                    candidates.append((d, gid, tid))
        candidates.sort(key=lambda c: (c[0], str(c[1]), str(c[2])))
        for d, gid, tid in candidates:
            if gid in matched_gt or tid in used_tracks:
                continue
            matched_gt[gid] = (tid, d)
            used_tracks.add(tid)

        for gid, gx, gy in gts:
            if gid in matched_gt:
                tid, d = matched_gt[gid]
                dist_sum += d
                match_count += 1
                if gid in last_match and last_match[gid] != tid:
                    idsw += 1
                last_match[gid] = tid
            else:
                fn += 1
        fp += len(trs) - len(used_tracks)

    mota = 1.0 - (fn + fp + idsw) / gt_total
    motp = None if match_count == 0 else 1.0 - (dist_sum / match_count) / match_radius
    return mota, motp, idsw


def gate_rates(event_rows) -> tuple[float | None, float | None]:
    """Per-episode FPR/FNR over labeled event hypotheses.

    event_rows: iterable of (event_id, is_true, was_accepted). FPR is the
    fraction of false hypotheses accepted; FNR is 1 if no true hypothesis
    was accepted (given at least one exists), else 0. Rates are None when
    the corresponding class is empty.
    """
    false_total = false_accepted = 0
    true_any = accepted_true_any = False
    for _eid, is_true, accepted in event_rows:
        if is_true:
            true_any = True
            accepted_true_any = accepted_true_any or accepted
        else:
            false_total += 1
            false_accepted += 1 if accepted else 0
    fpr = None if false_total == 0 else false_accepted / false_total
    fnr = None if not true_any else (0.0 if accepted_true_any else 1.0)
    return fpr, fnr


def objective_vector(m: EpisodeMetrics, params: MetricParams) -> tuple[float, ...]:
    """Five minimized objectives: tracking, safety, response, smoothness, energy.

    Missing response components (no V2X event, no map update) contribute
    zero rather than poisoning the vector.
    """
    j_trk = m.lateral_rmse
    ttc = m.ttc_min if math.isfinite(m.ttc_min) else params.tau_safety
    j_sfty = max(0.0, params.tau_safety - ttc)
    t_v2x = (m.v2x_reaction_ms or 0.0) / 1000.0
    t_upd = m.update_activation_s or 0.0
    j_resp = params.alpha_resp * t_v2x + params.beta_resp * t_upd
    j_smth = m.steer_variance + params.gamma_smooth * m.throttle_variance
    j_eng = m.brake_energy
    return (j_trk, j_sfty, j_resp, j_smth, j_eng)


def aggregate(metric_list) -> dict:
    """Mean and sample SD per numeric field, plus event counters."""
    out: dict = {"episodes": len(metric_list)}
    if not metric_list:
        return out
    numeric = ["lateral_rmse", "heading_rmse_deg", "heading_mean_abs_deg",
               "progress_fraction", "steer_variance", "throttle_variance",
               "brake_energy"]
    for name in numeric:
        vals = np.array([getattr(m, name) for m in metric_list], dtype=float)
        out[name] = {"mean": float(vals.mean()),
                     "sd": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0}
    ttc = np.array([m.ttc_min for m in metric_list], dtype=float)
    finite = ttc[np.isfinite(ttc)]
    out["ttc_min"] = {"mean": float(finite.mean()) if finite.size else None,
                      "sd": float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
                      "censored": int(np.sum(~np.isfinite(ttc)))}
    for name in ["v2x_reaction_ms", "update_activation_s", "trigger_latency_ms",
                 "false_positive_rate", "false_negative_rate", "mota", "motp"]:
        vals = [getattr(m, name) for m in metric_list if getattr(m, name) is not None]
        if vals:
            arr = np.array(vals, dtype=float)
            out[name] = {"mean": float(arr.mean()),
                         "sd": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
                         "n": len(vals)}
        else:
            out[name] = {"mean": None, "sd": None, "n": 0}
    out["collision_episodes"] = int(sum(1 for m in metric_list if m.collisions > 0))
    out["completed_episodes"] = int(sum(1 for m in metric_list if m.completion))
    out["completion_rate"] = out["completed_episodes"] / len(metric_list)
    out["id_switches"] = {"total": int(sum(m.id_switches for m in metric_list))}
    return out
