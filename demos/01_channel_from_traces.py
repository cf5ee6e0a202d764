"""Build frequency-domain channel matrices from a handwritten two-path trace."""

import math

from tracechan import (
    Direction,
    PlanarArray,
    SubbandGrid,
    beamformed_power,
    build_channel_matrices,
    parse_trace_text,
    steering_vector,
)

TRACE = """\
t,tx_id,rx_id,path_id,path_type,delay_s,gain_mag,phase_rad,\
aod_az_deg,aod_zen_deg,aoa_az_deg,aoa_zen_deg
0.0,0,1,0,LOS,3.336e-7,8.5e-6,0.0,20.0,95.0,-160.0,85.0
0.0,0,1,1,REFL,4.1e-7,2.4e-6,1.57,55.0,95.0,-120.0,85.0
"""

trace = parse_trace_text(TRACE)
print(f"parsed {len(trace.records)} path records")

grid = SubbandGrid(carrier_hz=28e9, bandwidth_hz=100e6, n_subbands=8)
lam = 299792458.0 / grid.carrier_hz
tx_array = PlanarArray(8, 8, lam)
rx_array = PlanarArray(2, 2, lam)

chan = build_channel_matrices(trace.records, tx_array, rx_array, grid)
print(f"channel tensor shape: {chan.matrices.shape}  (subband, rx, tx)")

# point both beams at the stronger (LOS) path
los = trace.records[0]
w_tx = steering_vector(
    tx_array, Direction.from_degrees(los.aod_az, los.aod_zen)
).vector / math.sqrt(tx_array.n_elements)
w_rx = steering_vector(
    rx_array, Direction.from_degrees(los.aoa_az, los.aoa_zen)
).vector / math.sqrt(rx_array.n_elements)

per_subband, total = beamformed_power(chan, w_tx, w_rx, p_tx_w=1.0)
print("per-subband receive power, dBm:")
for k, p in enumerate(per_subband):
    print(f"  subband {k}: {10 * math.log10(p * 1e3):8.3f}")
print(f"total: {10 * math.log10(total * 1e3):.3f} dBm")

# the matched LOS beam alone would deliver p * g^2 * Ntx * Nrx;
# the reflection shifts the sum a little around that level
matched = los.gain_mag ** 2 * tx_array.n_elements * rx_array.n_elements
print(f"single-path matched-beam level: {10 * math.log10(matched * 1e3):.3f} dBm")
