/**
 * @file
 * Floorplans for the thermal model.
 *
 * The paper feeds HotSpot a MIPS R10000-like floorplan (without L2)
 * scaled to 4.5 mm x 4.5 mm; we reproduce that: each reliability
 * structure is a rectangle, the rectangles tile the die exactly, and
 * block adjacency (shared border length) drives lateral thermal
 * coupling. A chip multiprocessor places copies of that core tile at
 * tile origins on one die (TileLayout); blocks on abutting tiles
 * couple laterally exactly like blocks within a tile.
 */

#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "sim/structures.hh"

namespace ramp {
namespace thermal {

/** Axis-aligned placement of one structure on the die (mm). */
struct Block
{
    sim::StructureId id;
    double x = 0.0;  ///< Left edge.
    double y = 0.0;  ///< Bottom edge.
    double w = 0.0;  ///< Width.
    double h = 0.0;  ///< Height.

    double area() const { return w * h; }
    double cx() const { return x + w / 2.0; }
    double cy() const { return y + h / 2.0; }
};

/** The fixed R10000-like core floorplan. */
class Floorplan
{
  public:
    /** Build the default 4.5 mm x 4.5 mm layout. */
    Floorplan();

    /** Block placement for a structure. */
    const Block &block(sim::StructureId id) const;

    /** All blocks, indexed by structureIndex. */
    const std::array<Block, sim::num_structures> &blocks() const
    {
        return blocks_;
    }

    /** Die edge length (mm); the die is square. */
    double dieSize() const { return die_mm_; }

    /**
     * Length (mm) of the border shared by two blocks; 0 when they are
     * not adjacent. Symmetric.
     */
    double sharedBorder(sim::StructureId a, sim::StructureId b) const;

    /** Distance between block centers (mm). */
    double centerDistance(sim::StructureId a, sim::StructureId b) const;

  private:
    double die_mm_ = 4.5;
    std::array<Block, sim::num_structures> blocks_;
};

/** Overlap length of the 1-D segments [a0,a1] and [b0,b1]. */
double segmentOverlap(double a0, double a1, double b0, double b1);

/** Placement of one core tile on the die (mm). */
struct TileOrigin
{
    double x_mm = 0.0; ///< Left edge of the tile.
    double y_mm = 0.0; ///< Bottom edge of the tile.
};

/**
 * Copies of the core Floorplan at tile origins: the geometry of the
 * N-tile RC network. A single core is one tile at the origin.
 * Placement validation (overlap, connectivity) is the caller's.
 */
class TileLayout
{
  public:
    explicit TileLayout(std::vector<TileOrigin> origins = {{}});

    std::size_t numTiles() const { return origins_.size(); }
    const std::vector<TileOrigin> &origins() const { return origins_; }

    /** The per-core structure layout every tile instantiates. */
    const Floorplan &core() const { return core_; }

    /** Edge length of one tile (mm); tiles are square. */
    double tileSize() const { return core_.dieSize(); }

    /** A structure's block in die coordinates. */
    Block block(std::size_t tile, sim::StructureId id) const;

    /**
     * Length (mm) of the border shared by two structure blocks,
     * possibly on different tiles; 0 when not adjacent. Symmetric.
     * Same-tile queries are the core floorplan's exactly.
     */
    double sharedBorder(std::size_t tile_a, sim::StructureId a,
                        std::size_t tile_b, sim::StructureId b) const;

    /** Distance between two blocks' centers; same-tile queries are
     *  the core floorplan's exactly. */
    double centerDistance(std::size_t tile_a, sim::StructureId a,
                          std::size_t tile_b,
                          sim::StructureId b) const;

    /** Tiles sharing a border of positive length. */
    bool tilesAdjacent(std::size_t tile_a, std::size_t tile_b) const;

  private:
    Floorplan core_;
    std::vector<TileOrigin> origins_;
};

} // namespace thermal
} // namespace ramp

