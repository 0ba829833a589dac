#include "src/net/message.h"

namespace ajoin {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kInput: return "Input";
    case MsgType::kData: return "Data";
    case MsgType::kMigrate: return "Migrate";
    case MsgType::kMigEnd: return "MigEnd";
    case MsgType::kEpochChange: return "EpochChange";
    case MsgType::kReshufSignal: return "ReshufSignal";
    case MsgType::kMigAck: return "MigAck";
    case MsgType::kEos: return "Eos";
    case MsgType::kCheckpoint: return "Checkpoint";
    case MsgType::kResult: return "Result";
    case MsgType::kScale: return "Scale";
    case MsgType::kShed: return "Shed";
    case MsgType::kEosNote: return "EosNote";
    case MsgType::kFlush: return "Flush";
  }
  return "?";
}

Envelope MakeInput(Rel rel, int64_t key, uint32_t bytes, uint64_t seq) {
  Envelope env;
  env.type = MsgType::kInput;
  env.rel = rel;
  env.key = key;
  env.bytes = bytes;
  env.seq = seq;
  return env;
}

}  // namespace ajoin
