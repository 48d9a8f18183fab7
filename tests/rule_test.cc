#include "ripple/rule.h"

#include <gtest/gtest.h>

namespace sdci::ripple {
namespace {

monitor::FsEvent Event(lustre::ChangeLogType type, std::string path) {
  monitor::FsEvent event;
  event.type = type;
  event.path = std::move(path);
  const size_t slash = event.path.find_last_of('/');
  event.name = slash == std::string::npos ? event.path : event.path.substr(slash + 1);
  return event;
}

TEST(KindOfEvent, MapsChangeLogTypes) {
  using lustre::ChangeLogType;
  EXPECT_EQ(KindOfEvent(ChangeLogType::kCreate), kCreated);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kHardlink), kCreated);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kMtime), kModified);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kClose), kModified);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kUnlink), kDeleted);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kRename), kRenamed);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kMkdir), kDirCreated);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kRmdir), kDirDeleted);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kSetattr), kAttribChanged);
  EXPECT_EQ(KindOfEvent(ChangeLogType::kMark), 0u);
}

TEST(ParseEventKind, NamesRoundTrip) {
  EXPECT_EQ(*ParseEventKind("created"), kCreated);
  EXPECT_EQ(*ParseEventKind("any"), kAnyEvent);
  EXPECT_FALSE(ParseEventKind("nonsense").ok());
  EXPECT_EQ(EventKindNames(kCreated | kDeleted),
            (std::vector<std::string>{"created", "deleted"}));
  EXPECT_EQ(EventKindNames(kAnyEvent), (std::vector<std::string>{"any"}));
}

TEST(Trigger, MatchesKindAndGlob) {
  Trigger trigger;
  trigger.event_mask = kCreated;
  trigger.path_glob = Glob("/lab/images/**");
  EXPECT_TRUE(trigger.Matches(Event(lustre::ChangeLogType::kCreate,
                                    "/lab/images/run1/a.tif")));
  EXPECT_FALSE(trigger.Matches(Event(lustre::ChangeLogType::kUnlink,
                                     "/lab/images/run1/a.tif")));
  EXPECT_FALSE(trigger.Matches(Event(lustre::ChangeLogType::kCreate,
                                     "/lab/text/a.tif")));
}

TEST(Trigger, SuffixFilter) {
  Trigger trigger;
  trigger.event_mask = kCreated;
  trigger.path_glob = Glob("/**");
  trigger.name_suffix = ".h5";
  EXPECT_TRUE(trigger.Matches(Event(lustre::ChangeLogType::kCreate, "/d/scan.h5")));
  EXPECT_FALSE(trigger.Matches(Event(lustre::ChangeLogType::kCreate, "/d/scan.txt")));
}

TEST(Trigger, UnresolvedPathsNeverMatch) {
  Trigger trigger;  // any event, any path
  monitor::FsEvent event;
  event.type = lustre::ChangeLogType::kCreate;
  event.path = "";  // fid2path failed
  EXPECT_FALSE(trigger.Matches(event));
}

TEST(Trigger, JsonRoundTrip) {
  Trigger trigger;
  trigger.event_mask = kCreated | kModified;
  trigger.path_glob = Glob("/data/**/*.h5");
  trigger.name_suffix = ".h5";
  auto parsed = Trigger::FromJson(trigger.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->event_mask, trigger.event_mask);
  EXPECT_EQ(parsed->path_glob.pattern(), "/data/**/*.h5");
  EXPECT_EQ(parsed->name_suffix, ".h5");
}

TEST(Rule, ParseFullDocument) {
  auto rule = Rule::Parse(R"({
    "id": "replicate-tifs",
    "trigger": {"events": ["created", "modified"], "path": "/lab/**",
                "suffix": ".tif"},
    "action": {"type": "transfer", "agent": "laptop",
               "params": {"destination_endpoint": "home",
                          "destination_dir": "/backup"}},
    "watch_agent": "hpc"
  })");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->id, "replicate-tifs");
  EXPECT_EQ(rule->action.type, ActionType::kTransfer);
  EXPECT_EQ(rule->action.agent, "laptop");
  EXPECT_EQ(rule->watch_agent, "hpc");
  EXPECT_TRUE(rule->enabled);
  EXPECT_EQ(rule->action.params.GetString("destination_endpoint"), "home");
}

TEST(Rule, WatchAgentDefaultsToActionAgent) {
  auto rule = Rule::Parse(R"({
    "id": "r", "trigger": {},
    "action": {"type": "email", "agent": "laptop", "params": {"to": "x@y"}}
  })");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->watch_agent, "laptop");
  EXPECT_EQ(rule->trigger.event_mask, kAnyEvent);
}

TEST(Rule, RejectsInvalidDocuments) {
  EXPECT_FALSE(Rule::Parse("not json").ok());
  EXPECT_FALSE(Rule::Parse(R"({"trigger": {}, "action": {"agent": "a"}})").ok())
      << "missing id";
  EXPECT_FALSE(Rule::Parse(R"({"id": "r", "trigger": {}, "action": {}})").ok())
      << "missing agent";
  EXPECT_FALSE(Rule::Parse(
                   R"({"id": "r", "trigger": {"events": ["bogus"]},
                       "action": {"agent": "a"}})")
                   .ok())
      << "unknown event kind";
  EXPECT_FALSE(Rule::Parse(
                   R"({"id": "r", "trigger": {},
                       "action": {"type": "bogus", "agent": "a"}})")
                   .ok())
      << "unknown action type";
}

TEST(Rule, JsonRoundTrip) {
  auto rule = Rule::Parse(R"({
    "id": "rt", "enabled": false,
    "trigger": {"events": ["deleted"], "path": "/x/*"},
    "action": {"type": "delete", "agent": "a", "params": {}}
  })");
  ASSERT_TRUE(rule.ok());
  auto round = Rule::FromJson(rule->ToJson());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->id, "rt");
  EXPECT_FALSE(round->enabled);
  EXPECT_EQ(round->trigger.event_mask, kDeleted);
  EXPECT_EQ(round->action.type, ActionType::kDelete);
}

TEST(ActionType, NamesRoundTrip) {
  for (const auto type : {ActionType::kTransfer, ActionType::kLocalCommand,
                          ActionType::kEmail, ActionType::kContainer,
                          ActionType::kDelete}) {
    EXPECT_EQ(*ParseActionType(ActionTypeName(type)), type);
  }
}

// Parameterized matching matrix: one rule per event kind against every
// record type. gtest names each case by the struct's raw bytes, so the
// trailing padding is spelled out and zeroed: left implicit it holds stack
// garbage and the case names change from run to run.
struct KindCase {
  uint32_t mask;
  lustre::ChangeLogType type;
  bool expected;
  uint16_t padding = 0;
};
static_assert(sizeof(KindCase) == 8, "KindCase must have no implicit padding");

class TriggerMatrixTest : public ::testing::TestWithParam<KindCase> {};

TEST_P(TriggerMatrixTest, MaskMatchesType) {
  const auto& param = GetParam();
  Trigger trigger;
  trigger.event_mask = param.mask;
  EXPECT_EQ(trigger.Matches(Event(param.type, "/any/file")), param.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TriggerMatrixTest,
    ::testing::Values(
        KindCase{kCreated, lustre::ChangeLogType::kCreate, true},
        KindCase{kCreated, lustre::ChangeLogType::kMtime, false},
        KindCase{kModified, lustre::ChangeLogType::kMtime, true},
        KindCase{kModified, lustre::ChangeLogType::kTruncate, true},
        KindCase{kDeleted, lustre::ChangeLogType::kUnlink, true},
        KindCase{kDeleted, lustre::ChangeLogType::kRmdir, false},
        KindCase{kDirDeleted, lustre::ChangeLogType::kRmdir, true},
        KindCase{kRenamed, lustre::ChangeLogType::kRename, true},
        KindCase{kAttribChanged, lustre::ChangeLogType::kSetattr, true},
        KindCase{kCreated | kDeleted, lustre::ChangeLogType::kUnlink, true},
        KindCase{kAnyEvent, lustre::ChangeLogType::kSoftlink, true},
        KindCase{kAnyEvent, lustre::ChangeLogType::kMark, false}));

}  // namespace
}  // namespace sdci::ripple
