#include "thermal/floorplan.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hh"

namespace ramp {
namespace thermal {

using sim::StructureId;
using sim::structureIndex;

Floorplan::Floorplan()
{
    // Four-row tiling of the 4.5 mm square die; widths chosen so each
    // block's area matches sim::structureArea exactly.
    auto put = [&](StructureId id, double x, double y, double w,
                   double h) {
        blocks_[structureIndex(id)] = Block{id, x, y, w, h};
    };

    // Row 0 (front end + predictor + I-cache), height 1.0.
    put(StructureId::L1I, 0.0, 0.0, 1.8, 1.0);
    put(StructureId::Bpred, 1.8, 0.0, 1.4, 1.0);
    put(StructureId::FrontEnd, 3.2, 0.0, 1.3, 1.0);

    // Row 1 (integer cluster), height 1.3.
    put(StructureId::IntReg, 0.0, 1.0, 1.2 / 1.3, 1.3);
    put(StructureId::IntAlu, 1.2 / 1.3, 1.0, 2.4 / 1.3, 1.3);
    put(StructureId::IWin, (1.2 + 2.4) / 1.3, 1.0, 2.25 / 1.3, 1.3);

    // Row 2 (FP cluster + LSQ), height 1.3.
    put(StructureId::FpReg, 0.0, 2.3, 1.2 / 1.3, 1.3);
    put(StructureId::Fpu, 1.2 / 1.3, 2.3, 3.6 / 1.3, 1.3);
    put(StructureId::Lsq, (1.2 + 3.6) / 1.3, 2.3, 1.05 / 1.3, 1.3);

    // Row 3 (data cache spans the die), height 0.9.
    put(StructureId::L1D, 0.0, 3.6, 4.5, 0.9);

    // Consistency: placement areas must match the canonical areas.
    for (const auto &b : blocks_) {
        const double want = sim::structureArea(b.id);
        if (std::fabs(b.area() - want) > 1e-9)
            util::panic(util::cat("floorplan area mismatch for ",
                                  sim::structureName(b.id), ": ",
                                  b.area(), " vs ", want));
    }
}

const Block &
Floorplan::block(StructureId id) const
{
    return blocks_[structureIndex(id)];
}

namespace {

constexpr double eps_mm = 1e-9;

/** Border length shared by two axis-aligned rectangles. */
double
rectBorder(const Block &p, const Block &q)
{
    // Vertical borders (p right edge on q left edge or vice versa).
    if (std::fabs((p.x + p.w) - q.x) < eps_mm ||
        std::fabs((q.x + q.w) - p.x) < eps_mm)
        return segmentOverlap(p.y, p.y + p.h, q.y, q.y + q.h);
    // Horizontal borders.
    if (std::fabs((p.y + p.h) - q.y) < eps_mm ||
        std::fabs((q.y + q.h) - p.y) < eps_mm)
        return segmentOverlap(p.x, p.x + p.w, q.x, q.x + q.w);
    return 0.0;
}

double
centerGap(const Block &p, const Block &q)
{
    const double dx = p.cx() - q.cx();
    const double dy = p.cy() - q.cy();
    return std::sqrt(dx * dx + dy * dy);
}

} // namespace

double
segmentOverlap(double a0, double a1, double b0, double b1)
{
    return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

double
Floorplan::sharedBorder(StructureId a, StructureId b) const
{
    if (a == b)
        return 0.0;
    return rectBorder(block(a), block(b));
}

double
Floorplan::centerDistance(StructureId a, StructureId b) const
{
    return centerGap(block(a), block(b));
}

TileLayout::TileLayout(std::vector<TileOrigin> origins)
    : origins_(std::move(origins))
{
    if (origins_.empty())
        util::panic("tile layout needs at least one tile");
}

Block
TileLayout::block(std::size_t tile, StructureId id) const
{
    Block b = core_.block(id);
    b.x += origins_[tile].x_mm;
    b.y += origins_[tile].y_mm;
    return b;
}

double
TileLayout::sharedBorder(std::size_t tile_a, StructureId a,
                         std::size_t tile_b, StructureId b) const
{
    if (tile_a == tile_b)
        return core_.sharedBorder(a, b);
    return rectBorder(block(tile_a, a), block(tile_b, b));
}

double
TileLayout::centerDistance(std::size_t tile_a, StructureId a,
                           std::size_t tile_b, StructureId b) const
{
    if (tile_a == tile_b)
        return core_.centerDistance(a, b);
    return centerGap(block(tile_a, a), block(tile_b, b));
}

bool
TileLayout::tilesAdjacent(std::size_t tile_a, std::size_t tile_b) const
{
    if (tile_a == tile_b)
        return false;
    // Each tile as one square block; the structure id is unused.
    const double s = tileSize();
    const TileOrigin &p = origins_[tile_a];
    const TileOrigin &q = origins_[tile_b];
    return rectBorder({StructureId{}, p.x_mm, p.y_mm, s, s},
                      {StructureId{}, q.x_mm, q.y_mm, s, s}) > eps_mm;
}

} // namespace thermal
} // namespace ramp
